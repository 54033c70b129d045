"""Vectorized expression kernels: AST -> array-op closure trees.

:func:`compile_kernel` lowers one scalar expression into a tree of
closures, each mapping a :class:`~repro.sql.batch.ColumnBatch` to either a
:class:`~repro.sql.batch.ColumnVector` or a :class:`Const` (a scalar the
whole batch shares).  Evaluation is array-at-a-time:

* comparisons and arithmetic run as numpy ufuncs with three-valued NULL
  logic carried in the null bitmaps (a NULL operand nulls the lane);
* ``and``/``or``/``not`` lower NULL to Python truthiness (``bool(None)`` is
  falsy) exactly like the row engine, and always produce plain booleans;
* string dictionaries are sorted and NUL-free, so a comparison with a
  constant is one ``searchsorted`` and one comparison on the codes;
* LIKE evaluates once per *dictionary entry* — as ``np.strings``
  prefix/find/suffix ops when ``%`` is the pattern's only wildcard, else
  with one compiled regex — and the string scalar functions once per
  entry some valid lane holds (``substr``/``substring`` as one
  ``np.strings.slice``, the rest in Python); each gathers the per-entry
  result through the codes;
* anything outside the typed fast paths — mixed-type (``object``) columns,
  string arithmetic, non-constant patterns — falls back to an elementwise
  loop over decoded values running the row engine's own scalar semantics,
  so the differential contract holds on every input.

Divergences from strict row-at-a-time evaluation are confined to error
paths: the row engine short-circuits ``and``/``or``/CASE per row and so
may skip a lane that raises (division by zero, ``year`` on a non-date),
while the vectorized form evaluates every lane (numpy warnings are
suppressed; the masked lanes never reach the result).
"""

from __future__ import annotations

import fnmatch
import re
from typing import Callable, Collection, Container, List, Mapping, Optional, Union

import numpy as np

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
from .batch import ColumnBatch, ColumnVector
from .errors import ExecutionError, SqlTypeError
from .semantics import _SCALAR_FUNCTIONS, like_to_glob, sql_like


class Const:
    """A per-batch constant: one scalar standing for every lane."""

    __slots__ = ("value",)

    def __init__(self, value: object) -> None:
        self.value = value


Value = Union[ColumnVector, Const]
Evaluator = Callable[[ColumnBatch], Value]

_NUMERIC_KINDS = frozenset(("int", "float", "bool"))
_EMPTY_BOOL = np.empty(0, np.bool_)

#: Row-engine scalar semantics, used by constant folding and fallbacks.
_PY_BIN: dict[str, Callable[[object, object], object]] = {
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

_NP_CMP = {
    "=": np.equal, "<>": np.not_equal, "<": np.less,
    ">": np.greater, "<=": np.less_equal, ">=": np.greater_equal,
}

#: ``const op col`` is ``col flipped[op] const``.
_FLIPPED = {
    "=": "=", "<>": "<>", "<": ">", ">": "<", "<=": ">=", ">=": "<=",
}

_NP_ARITH = {
    "+": np.add, "-": np.subtract, "*": np.multiply,
    "/": np.true_divide, "%": np.mod,
}

#: Integer constants beyond int64 range take the elementwise path.
_INT64_LIMIT = 2 ** 62


# ----------------------------------------------------------------------
# Value helpers
# ----------------------------------------------------------------------

def _kind_of(v: Value) -> str:
    if isinstance(v, ColumnVector):
        return v.kind
    value = v.value
    if value is None:
        return "null"
    t = type(value)
    if t is bool:
        return "bool"
    if t is int:
        return "int"
    if t is float:
        return "float"
    if t is str:
        return "str"
    return "object"


def _pylist(v: Value, n: int) -> list:
    if isinstance(v, ColumnVector):
        return v.to_pylist()
    return [v.value] * n


def _numeric_operand(v: Value) -> object:
    """Array or scalar for a numeric operand; bools promote to ints."""
    if isinstance(v, Const):
        value = v.value
        return int(value) if type(value) is bool else value
    if v.kind == "bool":
        return v.data.astype(np.int64)
    return v.data


def _mask_union(a: Value, b: Value) -> Optional[np.ndarray]:
    ma = a.mask if isinstance(a, ColumnVector) else None
    mb = b.mask if isinstance(b, ColumnVector) else None
    if ma is None:
        return mb
    if mb is None:
        return ma
    return ma | mb


def materialize(v: Value, n: int) -> ColumnVector:
    """Broadcast a Const to a full vector (no-op for vectors)."""
    if isinstance(v, ColumnVector):
        return v
    return ColumnVector.constant(v.value, n)


def truthy(v: Value, n: int) -> np.ndarray:
    """Python truthiness of each lane; NULL is falsy, like ``bool(None)``."""
    if isinstance(v, Const):
        return np.full(n, bool(v.value), np.bool_)
    kind = v.kind
    if kind == "bool":
        out = v.data
    elif kind in ("int", "float"):
        out = v.data != 0
    elif kind == "str":
        out = (np.strings.str_len(v.dictionary) > 0)[v.data]
    else:
        # object lanes hold raw values (None included): exact bool().
        return np.fromiter((bool(x) for x in v.data), np.bool_, count=len(v.data))
    if v.mask is not None:
        out = out & ~v.mask
    return out


def _elementwise1(fn: Callable[[object], object], v: Value, n: int) -> Value:
    return ColumnVector.from_values([fn(x) for x in _pylist(v, n)])


def _elementwise2(
    fn: Callable[[object, object], object], a: Value, b: Value, n: int
) -> Value:
    va, vb = _pylist(a, n), _pylist(b, n)
    return ColumnVector.from_values([fn(x, y) for x, y in zip(va, vb)])


def _null_prop(fn: Callable[[object, object], object]) -> Callable:
    return lambda x, y: None if x is None or y is None else fn(x, y)


# ----------------------------------------------------------------------
# Comparison / arithmetic
# ----------------------------------------------------------------------

def _compare(op: str, a: Value, b: Value, n: int) -> Value:
    ka, kb = _kind_of(a), _kind_of(b)
    if ka == "null" or kb == "null":
        return Const(None)
    if isinstance(a, Const) and isinstance(b, Const):
        return _py_binary(op, a, b, n)
    if ka in _NUMERIC_KINDS and kb in _NUMERIC_KINDS:
        with np.errstate(all="ignore"):
            out = _NP_CMP[op](_numeric_operand(a), _numeric_operand(b))
        return ColumnVector("bool", out, _mask_union(a, b))
    if ka == "str" and kb == "str":
        return _compare_str(op, a, b, n)
    # Mixed types: the row engine's Python operators decide (== is False,
    # orderings raise SqlTypeError) — run them lane by lane.
    return _py_binary(op, a, b, n)


def _compare_str(op: str, a: Value, b: Value, n: int) -> Value:
    if isinstance(a, ColumnVector) and isinstance(b, ColumnVector):
        if a.dictionary is b.dictionary:
            ca, cb = a.data, b.data
        else:
            merged = np.unique(np.concatenate([a.dictionary, b.dictionary]))
            ca = merged.searchsorted(a.dictionary).astype(np.int32)[a.data]
            cb = merged.searchsorted(b.dictionary).astype(np.int32)[b.data]
        # The merged dictionary is sorted, so code order == value order and
        # every comparison can run on the codes.
        return ColumnVector("bool", _NP_CMP[op](ca, cb), _mask_union(a, b))
    value = b.value if isinstance(b, Const) else a.value
    if "\x00" in value:  # type: ignore[operator]
        # numpy's str_ drops trailing NULs, so this constant has no code.
        return _py_binary(op, a, b, n)
    if isinstance(b, Const):
        col = a
    else:
        col, op = b, _FLIPPED[op]
    # The dictionary is sorted: the constant's insertion points bound the
    # codes below, equal to and above it, so one code comparison decides.
    lo = col.dictionary.searchsorted(value, "left")
    hi = col.dictionary.searchsorted(value, "right")
    codes = col.data
    if op == "=" or op == "<>":
        out = _NP_CMP[op](codes, lo if hi > lo else -1)
    elif op == "<":
        out = codes < lo
    elif op == "<=":
        out = codes < hi
    elif op == ">":
        out = codes >= hi
    else:
        out = codes >= lo
    return ColumnVector("bool", out, col.mask)


def _arith(op: str, a: Value, b: Value, n: int) -> Value:
    ka, kb = _kind_of(a), _kind_of(b)
    if ka == "null" or kb == "null":
        return Const(None)
    if isinstance(a, Const) and isinstance(b, Const):
        return _py_binary(op, a, b, n)
    if ka in _NUMERIC_KINDS and kb in _NUMERIC_KINDS and not (
        _oversized_const(a) or _oversized_const(b)
    ):
        with np.errstate(all="ignore"):
            out = _NP_ARITH[op](_numeric_operand(a), _numeric_operand(b))
        kind = "int" if op != "/" and "float" not in (ka, kb) else "float"
        return ColumnVector(kind, out, _mask_union(a, b))
    return _py_binary(op, a, b, n)


def _py_binary(op: str, a: Value, b: Value, n: int) -> Value:
    """``op`` by the row engine's Python operators, on two constants or
    lane by lane; operands it does not accept raise :class:`SqlTypeError`."""
    try:
        if isinstance(a, Const) and isinstance(b, Const):
            return Const(_PY_BIN[op](a.value, b.value))
        return _elementwise2(_null_prop(_PY_BIN[op]), a, b, n)
    except TypeError as exc:
        raise SqlTypeError(str(exc)) from exc


def _oversized_const(v: Value) -> bool:
    return (
        isinstance(v, Const)
        and type(v.value) is int
        and abs(v.value) > _INT64_LIMIT
    )


def _negate(v: Value, n: int) -> Value:
    kind = _kind_of(v)
    if kind == "null":
        return Const(None)
    if isinstance(v, ColumnVector) and kind in ("int", "bool"):
        data = v.data.astype(np.int64) if kind == "bool" else v.data
        return ColumnVector("int", -data, v.mask)
    if isinstance(v, ColumnVector) and kind == "float":
        return ColumnVector("float", -v.data, v.mask)
    try:
        if isinstance(v, Const):
            return Const(-v.value)  # type: ignore[operator]
        return _elementwise1(lambda x: None if x is None else -x, v, n)  # type: ignore[operator]
    except TypeError as exc:
        raise SqlTypeError(str(exc)) from exc


# ----------------------------------------------------------------------
# Conditional selection (CASE / coalesce)
# ----------------------------------------------------------------------

def _where(cond: np.ndarray, a: Value, b: Value, n: int) -> Value:
    """Per-lane select: ``a`` where ``cond`` else ``b``, preserving types."""
    if not cond.any():
        return b
    if cond.all():
        return a
    ka, kb = _kind_of(a), _kind_of(b)
    if ka == "null" and kb == "null":
        return Const(None)
    if ka == "null":
        return _where_null(cond, materialize(b, n))
    if kb == "null":
        return _where_null(~cond, materialize(a, n))
    if ka == kb and ka in _NUMERIC_KINDS:
        va, vb = materialize(a, n), materialize(b, n)
        data = np.where(cond, va.data, vb.data)
        return ColumnVector(ka, data, _where_masks(cond, va, vb))
    if ka == kb == "str":
        va, vb = materialize(a, n), materialize(b, n)
        if va.dictionary is vb.dictionary:
            dictionary, ca, cb = va.dictionary, va.data, vb.data
        else:
            dictionary = np.unique(np.concatenate([va.dictionary, vb.dictionary]))
            ca = dictionary.searchsorted(va.dictionary).astype(np.int32)[va.data]
            cb = dictionary.searchsorted(vb.dictionary).astype(np.int32)[vb.data]
        data = np.where(cond, ca, cb).astype(np.int32)
        return ColumnVector("str", data, _where_masks(cond, va, vb), dictionary)
    # Mixed kinds (e.g. a CASE yielding int on one branch, float on the
    # other): keep exact per-lane Python types via the object path.
    la, lb = _pylist(a, n), _pylist(b, n)
    return ColumnVector.from_values(
        [x if c else y for c, x, y in zip(cond.tolist(), la, lb)]
    )


def _where_null(cond: np.ndarray, v: ColumnVector) -> ColumnVector:
    """``v`` with the lanes selected by ``cond`` turned into NULLs."""
    mask = cond | v.mask if v.mask is not None else cond
    if v.kind == "object":
        data = v.data.copy()
        data[cond] = None
        return ColumnVector("object", data, mask)
    return ColumnVector(v.kind, v.data, mask, v.dictionary)


def _where_masks(
    cond: np.ndarray, a: ColumnVector, b: ColumnVector
) -> Optional[np.ndarray]:
    if a.mask is None and b.mask is None:
        return None
    return np.where(cond, a.null_mask(), b.null_mask())


def _not_null_lanes(v: Value, n: int) -> np.ndarray:
    if isinstance(v, Const):
        return np.full(n, v.value is not None, np.bool_)
    return ~v.null_mask()


# ----------------------------------------------------------------------
# LIKE / IN / scalar functions
# ----------------------------------------------------------------------

def _like_runs(dictionary: np.ndarray, runs: List[str]) -> np.ndarray:
    """LIKE per dictionary entry for a pattern split on ``%`` (no ``_``).

    The first run must start the entry, the last end it, and each inner
    run is found left to right after the one before; with ``%`` the only
    wildcard, taking each inner run's leftmost match is exact.
    """
    if len(runs) == 1:
        return dictionary == runs[0]
    first, *inner, last = runs
    ok = np.strings.startswith(dictionary, first)
    start = np.full(len(dictionary), len(first), np.int64)
    end = np.strings.str_len(dictionary) - len(last)
    for run in inner:
        if run:
            found = np.strings.find(dictionary, run, start, end)
            ok &= found >= 0
            start = found + len(run)
    return ok & np.strings.endswith(dictionary, last, start)


def _like_const(
    v: Value, rx: "re.Pattern[str]", runs: Optional[List[str]], n: int
) -> Value:
    # No NULL handling on purpose: the row engine formats NULL as the
    # literal string "None" before matching (sql_like(str(None), pattern)).
    if isinstance(v, Const):
        return Const(rx.match(str(v.value)) is not None)
    if v.kind == "str":
        if runs is None:
            per_unique = np.fromiter(
                (rx.match(u) is not None for u in v.dictionary.tolist()),
                np.bool_, count=len(v.dictionary),
            )
        else:
            per_unique = _like_runs(v.dictionary, runs)
        out = per_unique[v.data]
        if v.has_nulls():
            out = np.where(v.mask, rx.match("None") is not None, out)
        return ColumnVector("bool", out, None)
    values = v.to_pylist()
    return ColumnVector("bool", np.fromiter(
        (rx.match(str(x)) is not None for x in values), np.bool_, count=n
    ), None)


def _in_list(needle: Value, values: List[Value], negated: bool, n: int) -> Value:
    if not values:
        return Const(bool(negated))
    if isinstance(needle, Const) or _kind_of(needle) == "object" or not all(
        isinstance(v, Const) for v in values
    ):
        # Lane-by-lane, matching the row engine's `needle == value` chain
        # exactly (None == None is a match under Python equality).
        lists = [_pylist(v, n) for v in values]
        nl = _pylist(needle, n)
        out = []
        for i, x in enumerate(nl):
            matched = any(x == lst[i] for lst in lists)
            out.append((not matched) if negated else matched)
        if isinstance(needle, Const):
            return Const(out[0]) if n else ColumnVector.from_values(out)
        return ColumnVector("bool", np.fromiter(out, np.bool_, count=n), None)
    consts = [v.value for v in values]  # type: ignore[union-attr]
    mask = needle.null_mask()
    valid = ~mask
    out = mask.copy() if any(c is None for c in consts) else np.zeros(n, np.bool_)
    kind = needle.kind
    if kind == "str":
        # Dictionaries are NUL-free, so a constant holding a NUL (which
        # numpy's str_ would truncate) matches no entry.
        str_consts = [c for c in consts if type(c) is str and "\x00" not in c]
        if str_consts:
            member = np.isin(needle.dictionary, np.array(str_consts, np.str_))
            out = out | (member[needle.data] & valid)
    else:
        data = _numeric_operand(needle)
        for c in consts:
            if isinstance(c, (int, float)):
                scalar = int(c) if type(c) is bool else c
                out = out | ((data == scalar) & valid)
    if negated:
        out = ~out
    return ColumnVector("bool", out, None)


def _apply_scalar_fn(
    fn: Callable[..., object], name: str, vals: List[Value], n: int
) -> Value:
    if all(isinstance(v, Const) for v in vals):
        return Const(fn(*[v.value for v in vals]))  # type: ignore[union-attr]
    first, rest = vals[0], vals[1:]
    if isinstance(first, ColumnVector) and all(isinstance(r, Const) for r in rest):
        cargs = [r.value for r in rest]  # type: ignore[union-attr]
        if first.kind == "str":
            # Evaluate once per dictionary entry some valid lane holds (a
            # gathered vector keeps its source's whole dictionary, whose
            # other entries may make ``fn`` raise), gather through the codes.
            codes = first.data
            valid = codes[~first.mask] if first.has_nulls() else codes
            held = np.bincount(valid, minlength=len(first.dictionary)) > 0
            vector = _string_fn(name, fn, first, cargs, held)
            if vector is not None:
                return vector
            # ``upper``/``lower`` stay per entry: numpy keeps the input width
            # and truncates, so np.strings.upper("straße") is "STRAS".
            uniques = first.dictionary.tolist()
            applied = [
                fn(u, *cargs) if h else None for u, h in zip(uniques, held.tolist())
            ]
            if first.has_nulls():
                # The row engine passes raw None into the function (and may
                # raise, e.g. year(NULL)); evaluate it once, only if needed.
                applied.append(fn(None, *cargs))
                codes = np.where(first.mask, len(applied) - 1, codes)
            return ColumnVector.from_values(applied).take(codes)
        if first.kind in ("int", "float") and name == "abs" and not cargs:
            if first.has_nulls():
                fn(None)  # raises TypeError exactly like the row engine
            return ColumnVector(first.kind, np.abs(first.data), first.mask)
        if first.kind in ("int", "float", "bool") and name == "round":
            if first.has_nulls():
                fn(None, *cargs)  # raises TypeError exactly like the row engine
            # builtins.round ties-to-even can differ from np.round at the
            # digit boundary; loop to stay bit-identical with the row engine.
            return ColumnVector.from_values(
                [fn(v, *cargs) for v in first.data.tolist()]
            )
    lists = [_pylist(v, n) for v in vals]
    return ColumnVector.from_values([fn(*vs) for vs in zip(*lists)])


def _string_fn(
    name: str,
    fn: Callable[..., object],
    col: ColumnVector,
    cargs: List[object],
    held: np.ndarray,
) -> Optional[ColumnVector]:
    """``substr``/``substring`` with constant arguments as one
    ``np.strings.slice`` over the ``held`` dictionary entries, gathered to
    the lanes; ``None`` for every other call, and when no entry is held
    (the row engine then calls ``fn`` on no value, or only on NULL)."""
    if name not in ("substr", "substring") or not 1 <= len(cargs) <= 2:
        return None
    if not held.any():  # bad arguments must not raise where no entry is held
        return None
    # The row engine's conversions, once, so bad arguments raise the same;
    # Python slicing clamps any bound, int64 must not overflow.
    begin = int(cargs[0]) - 1  # type: ignore[call-overload]
    stop = None
    if len(cargs) == 2 and cargs[1] is not None:
        stop = begin + int(cargs[1])  # type: ignore[call-overload]
        stop = min(max(stop, -_INT64_LIMIT), _INT64_LIMIT)
    begin = min(max(begin, -_INT64_LIMIT), _INT64_LIMIT)
    # ``stop`` always passes: a lone second argument would be the stop.
    results = np.strings.slice(col.dictionary[held], begin, stop)
    lanes = (np.cumsum(held) - 1)[col.data]  # each lane's place among held
    if col.has_nulls():
        # The row engine passes raw None into the function; evaluate once.
        results = np.append(results, fn(None, *cargs))
        lanes = np.where(col.mask, len(results) - 1, lanes)
    dictionary, inverse = np.unique(results, return_inverse=True)
    return ColumnVector("str", inverse.astype(np.int32)[lanes], None, dictionary)


def _coalesce(vals: List[Value], n: int) -> Value:
    if not vals:
        return Const(None)
    acc = vals[-1]
    for v in reversed(vals[:-1]):
        acc = _where(_not_null_lanes(v, n), v, acc, n)
    return acc


# ----------------------------------------------------------------------
# Compiler
# ----------------------------------------------------------------------

class Kernel:
    """A compiled expression over a fixed schema.

    :meth:`eval` returns the vectorized result (a :class:`ColumnVector`);
    :meth:`truth` its Python-truthiness bitmap; calling the kernel decodes
    to a plain value list (the historical interface).  Zero-length batches
    short-circuit without evaluating — the row engine never evaluates
    expressions for absent rows either.
    """

    __slots__ = ("_run", "col_keys")

    def __init__(self, run: Evaluator, col_keys: list[str]) -> None:
        self._run = run
        self.col_keys = col_keys

    def eval(self, batch: ColumnBatch) -> ColumnVector:
        if batch.length == 0:
            return ColumnVector.empty("object")
        return materialize(self._run(batch), batch.length)

    def truth(self, batch: ColumnBatch) -> np.ndarray:
        if batch.length == 0:
            return _EMPTY_BOOL
        return truthy(self._run(batch), batch.length)

    def __call__(self, batch: ColumnBatch) -> list:
        if batch.length == 0:
            return []
        value = self._run(batch)
        if isinstance(value, Const):
            return [value.value] * batch.length
        return value.to_pylist()


def resolve_column(ref: ColumnRef, names: Container[str]) -> Optional[str]:
    """The column key ``ref`` reads among ``names``, or ``None``.

    The qualified key (``l.l_suppkey``) when present, else the bare name:
    the columnar engine's one resolution rule.  Kernels and join keys call
    it; WHERE pushdown places conjuncts by the keys their kernels resolved.
    """
    if ref.qualifier:
        key = f"{ref.qualifier}.{ref.name}"
        if key in names:
            return key
    return ref.name if ref.name in names else None


class _Compiler:
    """Lowers one expression tree to an evaluator closure tree."""

    def __init__(
        self, schema: Collection[str], aggregates: Optional[Mapping[int, str]]
    ) -> None:
        # Only read during compile, so a set is used as is, not copied.
        self.schema = schema if isinstance(schema, (set, frozenset)) else set(schema)
        self.aggregates = aggregates or {}
        self.col_keys: dict[str, None] = {}

    def compile(self, expr: Expr) -> Evaluator:
        if isinstance(expr, Literal):
            value = expr.value
            const = Const(value)
            return lambda batch: const
        if isinstance(expr, ColumnRef):
            key = resolve_column(expr, self.schema)
            if key is None:
                raise ExecutionError(f"column {str(expr)!r} not found in row")
            self.col_keys[key] = None
            return lambda batch: batch.columns[key]
        if isinstance(expr, Star):
            raise ExecutionError("* is only valid in select lists and count(*)")
        if isinstance(expr, UnaryOp):
            operand = self.compile(expr.operand)
            if expr.op == "-":
                return lambda batch: _negate(operand(batch), batch.length)
            if expr.op == "not":
                return self._compile_not(operand)
            raise ExecutionError(f"unknown unary operator {expr.op}")
        if isinstance(expr, BinaryOp):
            return self._compile_binary(expr)
        if isinstance(expr, FunctionCall):
            return self._compile_call(expr)
        if isinstance(expr, CaseExpr):
            return self._compile_case(expr)
        if isinstance(expr, InList):
            needle = self.compile(expr.expr)
            values = [self.compile(v) for v in expr.values]
            negated = bool(expr.negated)

            def run_in(batch: ColumnBatch) -> Value:
                return _in_list(
                    needle(batch), [v(batch) for v in values], negated, batch.length
                )
            return run_in
        raise ExecutionError(f"cannot evaluate {expr!r}")

    @staticmethod
    def _compile_not(operand: Evaluator) -> Evaluator:
        def run(batch: ColumnBatch) -> Value:
            v = operand(batch)
            if isinstance(v, Const):
                return Const(not v.value)
            return ColumnVector("bool", ~truthy(v, batch.length), None)
        return run

    def _compile_binary(self, expr: BinaryOp) -> Evaluator:
        op = expr.op
        if op in ("and", "or"):
            left, right = self.compile(expr.left), self.compile(expr.right)
            is_and = op == "and"

            def run_logic(batch: ColumnBatch) -> Value:
                lv = left(batch)
                if isinstance(lv, Const):
                    # Constant short-circuit, like the row engine's and/or.
                    if bool(lv.value) != is_and:
                        return Const(not is_and)
                    rv = right(batch)
                    if isinstance(rv, Const):
                        return Const(bool(rv.value))
                    return ColumnVector("bool", truthy(rv, batch.length), None)
                lt = truthy(lv, batch.length)
                rt = truthy(right(batch), batch.length)
                data = (lt & rt) if is_and else (lt | rt)
                return ColumnVector("bool", data, None)
            return run_logic
        if op == "like":
            left = self.compile(expr.left)
            if isinstance(expr.right, Literal):
                pattern = str(expr.right.value)
                rx = re.compile(fnmatch.translate(like_to_glob(pattern)))
                # ``_`` needs the regex; a NUL would not survive numpy's str_.
                runs = (
                    None if "_" in pattern or "\x00" in pattern
                    else pattern.split("%")
                )
                return lambda batch: _like_const(
                    left(batch), rx, runs, batch.length
                )
            right = self.compile(expr.right)
            return lambda batch: _elementwise2(
                sql_like, left(batch), right(batch), batch.length
            )
        left = self.compile(expr.left)
        right = self.compile(expr.right)
        if op == "||":
            return lambda batch: _elementwise2(
                lambda x, y: f"{x}{y}", left(batch), right(batch), batch.length
            )
        if op in _NP_CMP:
            return lambda batch: _compare(
                op, left(batch), right(batch), batch.length
            )
        if op in _NP_ARITH:
            return lambda batch: _arith(
                op, left(batch), right(batch), batch.length
            )
        raise ExecutionError(f"unknown operator {op!r}")

    def _compile_call(self, expr: FunctionCall) -> Evaluator:
        name = expr.name.lower()
        if name in AGGREGATE_FUNCTIONS:
            key = self.aggregates.get(id(expr))
            if key is None:
                raise ExecutionError(
                    f"aggregate {name}() outside an aggregation context"
                )
            self.col_keys[key] = None
            return lambda batch: batch.columns[key]
        fn = _SCALAR_FUNCTIONS.get(name)
        if fn is None:
            raise ExecutionError(f"unknown function {expr.name!r}")
        args = [self.compile(a) for a in expr.args]
        if name == "coalesce":
            return lambda batch: _coalesce(
                [a(batch) for a in args], batch.length
            )
        if name == "is_null" and len(args) == 1:
            arg = args[0]

            def run_is_null(batch: ColumnBatch) -> Value:
                v = arg(batch)
                if isinstance(v, Const):
                    return Const(v.value is None)
                return ColumnVector("bool", v.null_mask(), None)
            return run_is_null

        def run_fn(batch: ColumnBatch) -> Value:
            return _apply_scalar_fn(
                fn, name, [a(batch) for a in args], batch.length
            )
        return run_fn

    def _compile_case(self, expr: CaseExpr) -> Evaluator:
        whens = [
            (self.compile(cond), self.compile(value))
            for cond, value in expr.whens
        ]
        default = self.compile(expr.default) if expr.default is not None else None

        def run(batch: ColumnBatch) -> Value:
            n = batch.length
            acc: Value = default(batch) if default is not None else Const(None)
            for cond_ev, val_ev in reversed(whens):
                cond = truthy(cond_ev(batch), n)
                if not cond.any():
                    continue
                acc = _where(cond, val_ev(batch), acc, n)
            return acc
        return run


def compile_kernel(
    expr: Expr,
    schema: Collection[str],
    aggregates: Optional[Mapping[int, str]] = None,
) -> Kernel:
    """Compile ``expr`` into a vectorized kernel over ``schema`` columns.

    An operator compiling several kernels over one schema passes a set,
    built once and shared by every compile.  ``aggregates`` maps an
    aggregate call node (by identity) to the column holding its per-group
    results; the kernel reads that column for the call.  Any other
    aggregate call raises.
    """
    compiler = _Compiler(schema, aggregates)
    run = compiler.compile(expr)
    return Kernel(run, list(compiler.col_keys))
