"""Vectorized columnar execution engine on numpy.

Each operator runs once over its whole input: ``run()`` runs its
children, then turns their outputs into one
:class:`~repro.sql.batch.ColumnBatch` — typed ``np.ndarray`` columns with
null bitmaps and dictionary-encoded strings (:mod:`repro.sql.batch`),
possibly zero rows, column kinds kept — and times only its own work.
Scalar expressions are compiled once per query into array kernels
(:mod:`repro.sql.kernels`).  The physical operators are array programs:

* **filter** — kernel truthiness mask, ``np.flatnonzero`` + fancy-index
  gather;
* **aggregate** — groups from the key columns' equality codes, folded
  into one joint code and numbered in first-seen order from O(n) tables
  with no sort (a DISTINCT aggregate first keeps the first lane of each
  group and value), then ``np.bincount`` (whose sequential
  accumulation matches the row engine's ``total += v`` float-for-float)
  and ``np.minimum.at``/``np.maximum.at`` segmented reductions.  Aggregates
  emit columns: each distinct call's per-group results form one column of
  a post-aggregate batch, next to the representative (first-row) columns
  gathered per group, and the select list and HAVING are kernels over
  that batch, compiled once, each aggregate call reading its column.
  HAVING is one truth mask and one gather, evaluated before
  the items; zero groups evaluate nothing;
* **join** — every maximal run of INNER joins with pure equi conditions
  is one multi-way operator (:class:`_MultiJoinOp`): it runs its
  filtered inputs, codes each edge (the equi-pairs linking two inputs)
  once into a shared dense code space, then greedily merges the two
  connected components whose join yields the fewest rows — counted
  exactly as ``sum(left count * right count)`` from one ``np.bincount``
  per side, ties by FROM position — carrying only int64 row ids per
  input.  One stable pass over each input's row ids, last input first,
  puts the id tuples back into FROM order, which is the left-deep
  chain's left-major, build-ascending order, and each kept column is
  gathered once.  LEFT JOINs and residual or non-equi conditions stay
  binary (:class:`_JoinOp`): equi-keys go through the same codes and
  match kernel (buckets from ``np.bincount``/``cumsum`` offsets and one
  stable order of the build codes, pairs expanded with ``np.repeat``); a
  condition without an equi-key takes every pair as a candidate (a
  vectorized nested loop); a residual kernel pass applies the rest of the
  condition;
* **sort** — successive stable ``np.argsort`` passes, least-significant
  key first, with a null-flag pass replicating the row engine's
  ``_sort_key`` ordering;
* **limit** — the first rows of its child's whole output, like the row
  engine's ``rows[:count]``, so an error past the limit still raises.

Semantics mirror the row executor exactly — NULL propagation,
``and``/``or`` via Python truthiness, LIKE via the shared glob
translation, first-seen group ordering, left-major join output.  GROUP
BY, DISTINCT, DISTINCT aggregates and join keys decide equality through
one coder, :func:`_value_codes`: every NULL is one key and every NaN
another (as join keys neither matches anything), ``1``, ``1.0`` and
``True`` are equal, and a string equals no number.  Its codes are dense
in a known ``[0, size)``, so no kernel compares codes: groups come from
tables indexed by code, and every stable order of codes or row ids is
:func:`_stable_order`, numpy's radix sort on 16-bit keys (one pass up to
2**16, two up to 2**32).  Sorts and aggregates numpy cannot reproduce
bit for bit (``object`` columns, ``bool`` or NaN ``min``/``max``, NaN
sort keys) replay the row engine's Python loop in lane order.  Differential tests assert identical output
on every TPC-H query and the conformance corpus.

Lowering (:func:`compile_plan`) applies two rewrites, unconditionally:

* **WHERE pushdown** — the predicate is split over top-level ``and``;
  each conjunct is compiled against the join output and, by the column
  keys its kernel resolved, filters the deepest join input that alone
  supplies them.  A LEFT JOIN's right (NULL-supplying) side and the inside
  of a FROM-subquery never receive one; conjuncts that cannot move stay
  in one filter above the joins.  Filters keep row order and the join
  emits left-major, build-ordered output, so results and their order are
  unchanged.  (Error paths aside: a pushed conjunct also sees input rows
  the join drops — the divergence class :mod:`repro.sql.kernels` notes.)
* **Column pruning** — each operator passes down the column names its
  ancestors read (select items, GROUP BY, HAVING, WHERE, join conditions,
  ORDER BY); scans emit only those (``*`` means all, ``count(*)`` none),
  and aggregates gather per group only the columns the select list and
  HAVING read outside aggregate calls.

Only the columnar lowering sees these rewrites: the row executor and
``compile_sql``/``PhysicalPlanner`` (SQL -> simulated job DAG) run the
plan :func:`~repro.sql.logical.plan_statement` built.

The engine runs every plan the planner emits;
:func:`~repro.sql.dispatch.run_sql` runs it by default and keeps the row
executor only as the explicit reference.  The engine takes the row
layout, LIKE, the scalar functions, equi-keys and the sort key from
:mod:`repro.sql.semantics` and imports nothing from that executor.
"""

from __future__ import annotations

from itertools import accumulate
from time import perf_counter
from typing import Collection, Iterable, Optional

import numpy as np

from .ast import (
    BinaryOp,
    ColumnRef,
    Expr,
    FunctionCall,
    SelectItem,
    Star,
    add_column_names,
    collect_aggregates,
)
from .batch import (
    ColumnBatch,
    ColumnTable,
    ColumnVector,
    gather,
)
from .catalog import Catalog
from .errors import ExecutionError
from .kernels import Kernel, compile_kernel, resolve_column
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
from .semantics import Database, Row, _extract_equi_keys, _sort_key

__all__ = [
    "ColumnBatch",
    "ColumnTable",
    "ColumnVector",
    "ColumnarExecutor",
    "Kernel",
    "compile_kernel",
    "compile_plan",
    "walk_ops",
]

_INT64_MAX = np.iinfo(np.int64).max
_INT64_MIN = np.iinfo(np.int64).min

#: Ints pooled through float64 stay exact only up to 2**53.
_FLOAT_EXACT_INT = 2 ** 53


def _stable_desc_argsort(keys: np.ndarray) -> np.ndarray:
    """Stable *descending* argsort (ties keep their original order)."""
    n = len(keys)
    return (n - 1) - np.argsort(keys[::-1], kind="stable")[::-1]


# ----------------------------------------------------------------------
# Operators
# ----------------------------------------------------------------------

class _Op:
    """Base operator: runs once over its whole input, tracks throughput stats."""

    kind = "op"
    #: What the operator works on, for stats.  Operators that would format
    #: an expression define it as a property, so compile never pays for it.
    detail = ""

    def __init__(self) -> None:
        self.schema: list[str] = []
        self.rows_out = 0
        self.seconds = 0.0

    def children(self) -> list["_Op"]:
        return []

    def run(self) -> ColumnBatch:
        """Run the children, then this operator over their outputs.

        Only this operator's own work is timed into ``seconds``.  The
        output may have zero rows; its columns keep their kinds.
        """
        inputs = [child.run() for child in self.children()]
        began = perf_counter()
        out = self.apply(*inputs)
        self.seconds += perf_counter() - began
        self.rows_out += out.length
        return out

    def apply(self, *inputs: ColumnBatch) -> ColumnBatch:
        """This operator's work over its children's outputs."""
        raise NotImplementedError

    def stats(self) -> dict[str, object]:
        """Per-operator throughput summary for the trace spans."""
        rate = self.rows_out / self.seconds if self.seconds > 0 else 0.0
        return {
            "rows": self.rows_out,
            "seconds": round(self.seconds, 6),
            "rows_per_s": round(rate, 1),
            "detail": self.detail,
        }


class _UnaryOpBase(_Op):
    def __init__(self, child: _Op) -> None:
        super().__init__()
        self.child = child

    def children(self) -> list[_Op]:
        return [self.child]


class _ScanOp(_Op):
    kind = "scan"

    def __init__(
        self,
        node: LogicalScan,
        database: Database,
        catalog: Catalog,
        need: Optional[set[str]],
    ) -> None:
        super().__init__()
        rows = database.get(node.table)
        if rows is None:
            raise ExecutionError(f"table {node.table!r} not loaded")
        self.rows = rows
        self.columnar = isinstance(rows, ColumnTable)
        self.binding = node.binding
        self.detail = node.table
        if self.columnar:
            base = list(rows.names)
        elif len(rows):
            base = list(rows[0].keys())
        else:
            base = catalog.resolve_table(node.table).column_names()
        if need is not None:
            # ``need`` holds bare names; a dotted base name is always kept.
            base = [n for n in base if n in need or "." in n]
        self.base_names = base
        aliases = []
        if self.binding:
            aliases = [
                f"{self.binding}.{n}" for n in base
                if "." not in n and f"{self.binding}.{n}" not in base
            ]
        self.schema = base + aliases

    def apply(self) -> ColumnBatch:
        rows, binding = self.rows, self.binding
        if self.columnar:
            columns = {n: rows.columns[n] for n in self.base_names}
        else:
            columns = {
                n: ColumnVector.from_values([row[n] for row in rows])
                for n in self.base_names
            }
        if binding:
            for n in self.base_names:
                if "." not in n:
                    columns[f"{binding}.{n}"] = columns[n]
        return ColumnBatch(self.schema, columns, len(rows))


class _AliasOp(_UnaryOpBase):
    """FROM-clause subquery: re-qualify child columns under a binding."""

    kind = "subquery"

    def __init__(self, child: _Op, binding: Optional[str]) -> None:
        super().__init__(child)
        self.binding = binding
        self.detail = binding or ""
        if binding:
            self.alias_names = [
                n for n in child.schema if "." not in n
            ]
            extra = [
                f"{binding}.{n}" for n in self.alias_names
                if f"{binding}.{n}" not in child.schema
            ]
            self.schema = child.schema + extra
        else:
            self.alias_names = []
            self.schema = list(child.schema)

    def apply(self, batch: ColumnBatch) -> ColumnBatch:
        if not self.binding:
            return batch
        columns = dict(batch.columns)
        for n in self.alias_names:
            columns[f"{self.binding}.{n}"] = columns[n]
        return ColumnBatch(self.schema, columns, batch.length)


class _FilterOp(_UnaryOpBase):
    """Keeps the rows on which every conjunct is truthy."""

    kind = "filter"

    def __init__(self, child: _Op, conjuncts: list[tuple[Expr, Kernel]]) -> None:
        super().__init__(child)
        self.conjuncts = [conjunct for conjunct, _ in conjuncts]
        self.kernels = [kernel for _, kernel in conjuncts]
        self.schema = list(child.schema)

    @property
    def detail(self) -> str:  # type: ignore[override]
        return " and ".join(str(c) for c in self.conjuncts)

    def apply(self, batch: ColumnBatch) -> ColumnBatch:
        mask = self.kernels[0].truth(batch)
        for kernel in self.kernels[1:]:
            if not mask.any():
                break
            mask = mask & kernel.truth(batch)
        return batch if mask.all() else gather(batch, np.flatnonzero(mask))


class _ProjectOp(_UnaryOpBase):
    kind = "project"

    def __init__(self, child: _Op, node: LogicalProject) -> None:
        super().__init__(child)
        self.items = node.items
        self.distinct = node.distinct
        self.passthrough = (
            len(node.items) == 1 and isinstance(node.items[0].expr, Star)
        )
        self.kernels: list[tuple[Optional[str], Optional[Kernel]]] = []
        names: dict[str, None] = {}
        if self.passthrough:
            names = dict.fromkeys(child.schema)
        else:
            for item in node.items:
                if isinstance(item.expr, Star):
                    self.kernels.append((None, None))
                    names.update(dict.fromkeys(child.schema))
                else:
                    name = item.output_name
                    self.kernels.append(
                        (name, compile_kernel(item.expr, child.schema))
                    )
                    names[name] = None
        self.schema = list(names)

    def apply(self, batch: ColumnBatch) -> ColumnBatch:
        if self.passthrough:
            out = batch
        else:
            columns: dict[str, ColumnVector] = {}
            for name, kernel in self.kernels:
                if kernel is None:
                    for n in self.child.schema:
                        columns[n] = batch.columns[n]
                else:
                    columns[name] = kernel.eval(batch)  # type: ignore[index]
            out = ColumnBatch(self.schema, columns, batch.length)
        return _distinct(out) if self.distinct else out


def _distinct(batch: ColumnBatch) -> ColumnBatch:
    """The first occurrence of each distinct row, in order."""
    vectors = {id(batch.columns[n]): batch.columns[n] for n in batch.names}
    _, first = _first_seen_groups(*_group_codes(vectors.values(), batch.length))
    return batch if len(first) == batch.length else gather(batch, first)


# ----------------------------------------------------------------------
# Equality codes
# ----------------------------------------------------------------------

#: The codes every NULL lane and every NaN lane get; values take codes
#: from 2 up.
_NULL, _NAN = 0, 1


def _value_codes(vectors: list[ColumnVector]) -> tuple[list[np.ndarray], int]:
    """Equality codes for the lanes of ``vectors``, in one shared space.

    Two lanes get the same int64 code exactly when their values are equal
    under the engine's one equality rule: every NULL lane gets ``_NULL``
    and every NaN lane ``_NAN``; ``1``, ``1.0`` and ``True`` are equal; a
    string never equals a number.  Returns one code array per vector and
    the size of the space (every code is below it): the grouping and join
    kernels index tables by code and pick their sort passes by that size.

    Strings take dictionary codes and numbers offsets or ``np.unique``
    (pooled in float64 only while that is exact).  ``object`` columns,
    strings meeting numbers and ints beyond 2**53 meeting floats take a
    dict of the values themselves.
    """
    kinds = {vec.kind for vec in vectors}
    inexact = "float" in kinds and any(
        vec.kind == "int" and _beyond_float(vec) for vec in vectors
    )
    if kinds == {"str"}:
        codes, size = _string_codes(vectors)
    elif kinds <= {"int", "bool", "float"} and not inexact:
        codes, size = _number_codes(vectors)
    else:
        return _object_codes(vectors)
    for vec, part in zip(vectors, codes):
        if vec.mask is not None:
            part[vec.mask] = _NULL
    return codes, size


def _beyond_float(vec: ColumnVector) -> bool:
    """True when a valid lane of int ``vec`` is beyond float64's exact range."""
    valid = vec.data if vec.mask is None else vec.data[~vec.mask]
    return bool(valid.size) and (
        int(valid.max()) > _FLOAT_EXACT_INT or int(valid.min()) < -_FLOAT_EXACT_INT
    )


def _string_codes(vectors: list[ColumnVector]) -> tuple[list[np.ndarray], int]:
    """:func:`_value_codes` for ``str`` vectors, merging their dictionaries."""
    first = vectors[0].dictionary
    if all(vec.dictionary is first for vec in vectors):
        return [np.add(vec.data, 2, dtype=np.int64) for vec in vectors], len(first) + 2
    merged = np.unique(np.concatenate([vec.dictionary for vec in vectors]))
    return [
        (merged.searchsorted(vec.dictionary) + 2)[vec.data] for vec in vectors
    ], len(merged) + 2


def _number_codes(vectors: list[ColumnVector]) -> tuple[list[np.ndarray], int]:
    """:func:`_value_codes` for int, bool and float vectors."""
    dtype = np.float64 if any(vec.kind == "float" for vec in vectors) else np.int64
    datas = [vec.data.astype(dtype, copy=False) for vec in vectors]
    pooled = datas[0] if len(datas) == 1 else np.concatenate(datas)
    codes = None
    if dtype is np.int64 and pooled.size:
        low = int(pooled.min())
        n = int(pooled.max()) - low + 1
        if n < 2 * pooled.size and low - 2 >= _INT64_MIN:
            # Integer keys whose range is under twice their count are
            # their own codes, offset to start at 2 (``low - 2`` must fit
            # int64): no np.unique sort, and every bincount over the codes
            # stays under twice the lane count.
            codes = pooled - (low - 2)
    if codes is None:
        uniques, inverse = np.unique(pooled, return_inverse=True)
        codes = np.add(inverse, 2, dtype=np.int64)
        n = len(uniques)
    if dtype is np.float64:
        codes[np.isnan(pooled)] = _NAN
    stops = accumulate(len(data) for data in datas)
    return [codes[stop - len(data):stop] for data, stop in zip(datas, stops)], n + 2


def _object_codes(vectors: list[ColumnVector]) -> tuple[list[np.ndarray], int]:
    """:func:`_value_codes` by Python equality, from a dict of the values."""
    index: dict[object, int] = {}
    codes = []
    for vec in vectors:
        codes.append(np.array([
            _NULL if v is None
            else _NAN if isinstance(v, float) and v != v
            else index.setdefault(tuple(v) if isinstance(v, list) else v, len(index) + 2)
            for v in vec.to_pylist()
        ], np.int64))
    return codes, len(index) + 2


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------

def _combine_codes(
    parts: list[np.ndarray], sizes: list[int]
) -> tuple[np.ndarray, int]:
    """Fold per-column codes (``parts[i]`` below ``sizes[i]``) into one
    joint code per lane; returns the codes and the size of their space.

    Codes fold by multiplying.  A space wider than ``4n + 64`` for ``n``
    lanes is renumbered through ``np.unique`` first, so every table over
    the codes stays O(n) and no product comes near 2**63.
    """
    bound = 4 * len(parts[0]) + 64
    codes, size = _bounded(parts[0], sizes[0], bound)
    for part, width in zip(parts[1:], sizes[1:]):
        part, width = _bounded(part, width, bound)
        codes, size = _bounded(codes * width + part, size * width, bound)
    return codes, size


def _bounded(codes: np.ndarray, size: int, bound: int) -> tuple[np.ndarray, int]:
    """``codes`` renumbered densely when their space is wider than ``bound``."""
    if size <= bound:
        return codes, size
    uniques, inverse = np.unique(codes, return_inverse=True)
    return inverse.astype(np.int64, copy=False), len(uniques)


def _first_seen_groups(codes: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Group ids in first-occurrence order + first lane index per group.

    O(n + size) tables, no sort: each code's first lane comes from
    ``np.minimum.at``, and those lanes, in lane order, are the groups.
    """
    lanes = np.arange(len(codes), dtype=np.int64)
    first = np.full(size, len(codes), np.int64)
    np.minimum.at(first, codes, lanes)
    reps = np.flatnonzero(first[codes] == lanes)
    rank = np.empty(size, np.int64)
    rank[codes[reps]] = np.arange(len(reps), dtype=np.int64)
    return rank[codes], reps


def _group_codes(vectors: Iterable[ColumnVector], n: int) -> tuple[np.ndarray, int]:
    """One joint equality code per lane over ``vectors`` (``n`` lanes each)."""
    coded = [_value_codes([vec]) for vec in vectors]
    if not coded:
        return np.zeros(n, np.int64), 1
    return _combine_codes([codes for (codes,), _ in coded], [size for _, size in coded])


def _stable_order(codes: np.ndarray, size: int) -> np.ndarray:
    """Exactly ``np.argsort(codes, kind="stable")`` for codes in ``[0, size)``.

    numpy radix-sorts 16-bit keys, so a space up to 2**16 sorts once as
    ``uint16`` and one up to 2**32 in two 16-bit LSD passes; only a wider
    space takes the int64 comparison sort.
    """
    if size <= 1 << 16:
        return np.argsort(codes.astype(np.uint16), kind="stable")
    if size > 1 << 32:
        return np.argsort(codes, kind="stable")
    low = np.argsort(codes.astype(np.uint16), kind="stable")
    high = (codes[low] >> 16).astype(np.uint16)
    return low[np.argsort(high, kind="stable")]


def _group_vector(
    kind: str,
    data: np.ndarray,
    empty: np.ndarray,
    dictionary: Optional[np.ndarray] = None,
) -> ColumnVector:
    """Per-group results, encoded as ``ColumnVector.from_values`` would
    encode the row engine's values: ``empty`` groups are NULL over zeroed
    data, and a result without any value is an all-NULL ``object`` vector."""
    if not empty.any():
        return ColumnVector(kind, data, None, dictionary)
    if empty.all():
        return ColumnVector.all_null(len(empty))
    data = np.where(empty, data.dtype.type(0), data)
    return ColumnVector(kind, data, empty, dictionary)


def _present_only(vec: ColumnVector) -> ColumnVector:
    """``vec`` with a ``str`` dictionary cut down to the values its lanes
    hold, so a ``min``/``max`` result encodes like ``from_values``."""
    if vec.kind != "str":
        return vec
    mask = vec.mask
    codes = vec.data if mask is None else vec.data[~mask]
    used, inverse = np.unique(codes, return_inverse=True)
    if len(used) == len(vec.dictionary):
        return vec
    if not len(used):
        return ColumnVector.all_null(len(vec))
    if mask is None:
        data = inverse.astype(np.int32)
    else:
        data = np.zeros(len(vec), np.int32)
        data[~mask] = inverse
    return ColumnVector("str", data, mask, vec.dictionary[used])


class _NoRepresentative(dict):
    """Columns of an ungrouped aggregate over empty input: its one group has
    no representative row, so reading a column raises as in the row engine."""

    def __missing__(self, key: str) -> ColumnVector:
        raise ExecutionError(f"column {key!r} not found in row")


class _AggCall:
    """One aggregate call: vectorized over all groups at once."""

    __slots__ = ("name", "star", "distinct", "kernel")

    def __init__(self, call: FunctionCall, schema: Collection[str]) -> None:
        self.name = call.name.lower()
        self.star = bool(call.args) and isinstance(call.args[0], Star)
        if self.star and self.name != "count":
            # The row engine would raise per row; surface the same error.
            raise ExecutionError("* is only valid in select lists and count(*)")
        if not call.args:
            raise ExecutionError(f"{self.name}() needs an argument")
        self.distinct = bool(call.distinct)
        self.kernel = (
            None if self.star else compile_kernel(call.args[0], schema)
        )

    def compute(
        self, table: ColumnBatch, gids: np.ndarray, n_groups: int
    ) -> ColumnVector:
        """Per-group results, groups in first-seen order.

        The vector is exactly the one ``ColumnVector.from_values`` infers
        from the row engine's per-group values (see :func:`_group_vector`).
        """
        if self.star:
            return ColumnVector("int", np.bincount(gids, minlength=n_groups))
        values = self.kernel.eval(table)  # type: ignore[union-attr]
        if self.distinct:
            # Only the first lane of each (group, value) pair counts.
            (codes,), size = _value_codes([values])
            _, first = _first_seen_groups(
                *_combine_codes([gids, codes], [n_groups, size])
            )
            first = first[codes[first] != _NULL]
            values, gids = values.take(first), gids[first]
        if values.kind == "object":
            return self._py_compute(values.to_pylist(), gids, n_groups)
        valid = ~values.null_mask()
        g_valid = gids[valid]
        counts = np.bincount(g_valid, minlength=n_groups)
        name = self.name
        if name == "count":
            return ColumnVector("int", counts)
        empty = counts == 0
        if name in ("sum", "avg"):
            if values.kind == "str":
                # The row engine counts non-null strings but adds nothing.
                totals = np.zeros(n_groups)
            else:
                # bincount accumulates weights sequentially in lane order —
                # bit-identical to the row engine's per-row `total += v`.
                totals = np.bincount(
                    g_valid,
                    weights=values.data[valid].astype(np.float64),
                    minlength=n_groups,
                )
            if name == "avg":
                totals = totals / np.where(empty, 1, counts)
            return _group_vector("float", totals, empty)
        if name not in ("min", "max"):
            raise ExecutionError(f"unknown aggregate {self.name!r}")
        if values.kind == "bool":
            return self._py_compute(values.to_pylist(), gids, n_groups)
        data = values.data[valid]
        if values.kind == "float" and data.size and bool(np.isnan(data).any()):
            # `v < m` with NaN is order-dependent; replay the exact order.
            return self._py_compute(values.to_pylist(), gids, n_groups)
        reduce_at = np.minimum.at if name == "min" else np.maximum.at
        if values.kind == "str":
            sentinel = _INT64_MAX if name == "min" else np.int64(-1)
            out = np.full(n_groups, sentinel, np.int64)
            reduce_at(out, g_valid, data.astype(np.int64))
            codes = out.astype(np.int32)
            return _present_only(_group_vector("str", codes, empty, values.dictionary))
        if values.kind == "int":
            sentinel_i = _INT64_MAX if name == "min" else _INT64_MIN
            out = np.full(n_groups, sentinel_i, np.int64)
        else:
            out = np.full(n_groups, np.inf if name == "min" else -np.inf)
        reduce_at(out, g_valid, data)
        return _group_vector(values.kind, out, empty)

    def _py_compute(
        self, values: list, gids: np.ndarray, n_groups: int
    ) -> ColumnVector:
        """Row-engine accumulator semantics, replayed in lane order."""
        counts = [0] * n_groups
        totals = [0.0] * n_groups
        mins: list = [None] * n_groups
        maxs: list = [None] * n_groups
        name = self.name
        pairs = zip(gids.tolist(), values)
        if name in ("sum", "avg"):
            for g, v in pairs:
                if v is not None:
                    counts[g] += 1
                    if isinstance(v, (int, float)):
                        totals[g] += v
        elif name == "count":
            for g, v in pairs:
                if v is not None:
                    counts[g] += 1
        elif name == "min":
            for g, v in pairs:
                if v is not None and (mins[g] is None or v < mins[g]):
                    mins[g] = v
        elif name == "max":
            for g, v in pairs:
                if v is not None and (maxs[g] is None or v > maxs[g]):
                    maxs[g] = v
        else:
            raise ExecutionError(f"unknown aggregate {name!r}")
        if name == "count":
            result = counts
        elif name == "sum":
            result = [t if c else None for t, c in zip(totals, counts)]
        elif name == "avg":
            result = [t / c if c else None for t, c in zip(totals, counts)]
        else:
            result = mins if name == "min" else maxs
        return ColumnVector.from_values(result)


def _compile_or_defer(
    expr: Expr, schema: Collection[str], aggregates: dict[int, str]
) -> Kernel:
    """``compile_kernel``, with a compile error raised at evaluation
    instead: the row engine raises only for a group it evaluates."""
    try:
        return compile_kernel(expr, schema, aggregates)
    except ExecutionError as error:
        message = str(error)

        def fail(batch: ColumnBatch) -> ColumnVector:
            raise ExecutionError(message)
        return Kernel(fail, [])


class _AggregateOp(_UnaryOpBase):
    """GROUP BY/HAVING/select list as array programs over per-group columns.

    Groups are assigned once; each distinct aggregate call becomes one
    column of the *post-aggregate batch* next to the representative (first
    row of the group) columns the select list and HAVING read.  Select
    items and HAVING are compiled once, each aggregate call reading its
    column, and run as kernels over that batch.
    """

    kind = "aggregate"

    def __init__(self, child: _Op, node: LogicalAggregate) -> None:
        super().__init__(child)
        self.node = node
        calls: list[FunctionCall] = []
        for item in node.items:
            collect_aggregates(item.expr, calls)
        if node.having is not None:
            collect_aggregates(node.having, calls)
        # One column per distinct call, named by its text (never an
        # identifier, so never a representative column's name).
        column_of = {id(call): str(call) for call in calls}
        unique = {column_of[id(call)]: call for call in calls}
        self.agg_names = list(unique)
        names = set(child.schema)
        self.calls = [_AggCall(c, names) for c in unique.values()]
        self.group_kernels = [compile_kernel(g, names) for g in node.group_by]
        # Items and HAVING read each aggregate call from its column and,
        # through each group's representative row, any child column.
        self.having = None if node.having is None else _compile_or_defer(
            node.having, names, column_of)
        self.items = [
            (item.output_name, _compile_or_defer(item.expr, names, column_of))
            for item in node.items
        ]
        self.schema = list(dict.fromkeys(name for name, _ in self.items))
        kernels = [kernel for _, kernel in self.items]
        if self.having is not None:
            kernels.append(self.having)
        # Representative columns: exactly the child keys those kernels read.
        self.rep_keys = [
            key for key in dict.fromkeys(k for kernel in kernels for k in kernel.col_keys)
            if key not in unique
        ]

    @property
    def detail(self) -> str:  # type: ignore[override]
        return ", ".join(str(g) for g in self.node.group_by)

    def apply(self, table: ColumnBatch) -> ColumnBatch:
        # The whole input at once: bincount's sequential accumulation
        # matches the row engine's row order.  Kernels over zero groups
        # evaluate nothing.
        n = table.length
        if self.group_kernels:
            gids, rep_idx = _first_seen_groups(
                *_group_codes((k.eval(table) for k in self.group_kernels), n)
            )
            n_groups = len(rep_idx)
        else:
            # An ungrouped aggregate has one group even over empty input.
            gids = np.zeros(n, np.int64)
            rep_idx = np.zeros(min(n, 1), np.int64)
            n_groups = 1
        rep = {k: table.columns[k] for k in self.rep_keys} if n else {}
        columns = {k: vec.take(rep_idx) for k, vec in rep.items()}
        for name, call in zip(self.agg_names, self.calls):
            columns[name] = call.compute(table, gids, n_groups)
        post = ColumnBatch(list(columns), columns, n_groups)
        if not n:
            post.columns = _NoRepresentative(post.columns)
        if self.having is not None:
            keep = np.flatnonzero(self.having.truth(post))
            if keep.size < n_groups:
                post = gather(post, keep)
        out = {name: kernel.eval(post) for name, kernel in self.items}
        return ColumnBatch(self.schema, out, post.length)


# ----------------------------------------------------------------------
# Join
# ----------------------------------------------------------------------

def _is_pure_equi(condition: Expr) -> bool:
    """True when the condition is exactly a conjunction of col = col."""
    if isinstance(condition, BinaryOp):
        if condition.op == "and":
            return _is_pure_equi(condition.left) and _is_pure_equi(condition.right)
        if condition.op == "=":
            return isinstance(condition.left, ColumnRef) and isinstance(
                condition.right, ColumnRef
            )
    return False


def _key_codes(
    left_vecs: list[ColumnVector], right_vecs: list[ColumnVector]
) -> tuple[np.ndarray, np.ndarray, int]:
    """One dense code space for the equi-pairs between two inputs.

    Returns per-lane codes for each side and the size of the space.  Equal
    codes <=> every pair is equal; a lane with a NULL or NaN key holds a
    code only its own side uses, so it matches nothing.
    """
    left_parts, right_parts, sizes = [], [], []
    for left, right in zip(left_vecs, right_vecs):
        (left_codes, right_codes), size = _value_codes([left, right])
        # NULL and NaN keys equal nothing: the left side keeps both on
        # ``_NULL``, the right side on ``_NAN``.
        if left.kind in ("float", "object"):
            left_codes[left_codes == _NAN] = _NULL
        if right.mask is not None or right.kind == "object":
            right_codes[right_codes == _NULL] = _NAN
        left_parts.append(left_codes)
        right_parts.append(right_codes)
        sizes.append(size)
    if len(left_parts) == 1:
        return left_parts[0], right_parts[0], size
    return _joint_codes(left_parts, right_parts, sizes)


def _joint_codes(
    left_parts: list[np.ndarray], right_parts: list[np.ndarray], sizes: list[int]
) -> tuple[np.ndarray, np.ndarray, int]:
    """Fold per-key codes into one joint code per lane.

    Both sides fold through the *same* renumbering, so the fold runs over
    their concatenation.  Returns (left codes, right codes, size).
    """
    n = len(left_parts[0])
    codes, size = _combine_codes(
        [np.concatenate(p) for p in zip(left_parts, right_parts)], sizes
    )
    return codes[:n], codes[n:], size


def _match(
    probe: np.ndarray, build: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every (probe lane, build lane) pair with equal codes.

    ``counts`` is ``np.bincount(build)`` over the whole code space.  Pairs
    come probe-major, build lanes ascending within a code — the row
    engine's hash-join order.  Buckets are located through ``cumsum``
    offsets over ``counts`` and one :func:`_stable_order` of the build codes.
    """
    per_probe = counts[probe]
    total = int(per_probe.sum())
    if not total:
        empty = np.empty(0, np.int64)
        return empty, empty
    order = _stable_order(build, len(counts))
    starts = np.cumsum(counts) - counts
    ends = np.cumsum(per_probe)
    probe_idx = np.repeat(np.arange(len(probe), dtype=np.int64), per_probe)
    offsets = np.repeat(starts[probe] - (ends - per_probe), per_probe)
    return probe_idx, order[np.arange(total, dtype=np.int64) + offsets]


def _input_label(op: _Op) -> str:
    """An input's name in merge-order details: its binding or table."""
    while isinstance(op, _FilterOp):
        op = op.child
    if isinstance(op, _ScanOp):
        return op.binding or op.detail
    return getattr(op, "binding", None) or op.kind


class _Component:
    """Inputs merged so far by a multi-way join, as one row-id vector per
    input; ``ordered`` when its rows are in FROM order of their ids."""

    __slots__ = ("inputs", "ids", "ordered")

    def __init__(
        self, inputs: tuple[int, ...], ids: dict[int, np.ndarray], ordered: bool
    ) -> None:
        self.inputs = inputs
        self.ids = ids
        self.ordered = ordered

    def rows_of(self, index: int, values: np.ndarray) -> np.ndarray:
        """``values``, one per row of input ``index``, at this component's
        rows (a single input's rows are its own)."""
        return values if len(self.inputs) == 1 else values[self.ids[index]]


class _MultiJoinOp(_Op):
    """A maximal run of INNER equi-joins, executed as one multi-way join.

    Input 0 is what the run's first join reads on its left (a scan, a
    FROM-subquery or a join outside the run); input *k* is join *k*'s right
    side.  Each equi-pair links two inputs, and the pairs linking the same
    two inputs form one *edge*.  A run:

    1. runs its (filtered) inputs, so their sizes are measured;
    2. codes each edge once, into a shared dense code space;
    3. greedily merges the two connected components whose join yields the
       fewest rows — exactly ``sum(left count * right count)`` over codes,
       from one ``np.bincount`` per side — ties by FROM position;
    4. carries only an int64 row-id vector per input;
    5. sorts the id tuples into FROM order with one :func:`_stable_order`
       pass per input, last input first (skipped when every merge kept
       that order), and gathers each kept column once,
       from the input the left-deep chain of binary joins takes it from.

    The left-deep chain emits left-major output with build rows ascending
    within a key, i.e. sorted by id tuple in FROM order, so the rows and
    their order are exactly the row engine's.
    """

    kind = "join"
    join_kind = "inner"

    def __init__(self, first: _Op) -> None:
        super().__init__()
        self.inputs = [first]
        self.input_names = [set(first.schema)]
        self.schema = list(first.schema)
        #: The input each output column comes from: the last that has it.
        self.source = dict.fromkeys(first.schema, 0)
        self.conditions: list[Expr] = []
        self.edges: dict[tuple[int, int], list[tuple[str, str]]] = {}
        #: (component, component, rows) per merge of the last run.
        self.merges: list[tuple[tuple[int, ...], tuple[int, ...], int]] = []

    def add(self, right: _Op, condition: Expr) -> bool:
        """Join ``right`` to the run on ``condition``, a pure equi one;
        ``False`` (and no change) when some key resolves on neither side."""
        right_names = set(right.schema)
        pairs = []
        for a, b in _extract_equi_keys(condition):
            if resolve_column(a, self.source) is None:
                a, b = b, a
            left_key = resolve_column(a, self.source)
            right_key = resolve_column(b, right_names)
            if left_key is None or right_key is None:
                return False
            pairs.append((self.source[left_key], left_key, right_key))
        k = len(self.inputs)
        for i, left_key, right_key in pairs:
            self.edges.setdefault((i, k), []).append((left_key, right_key))
        self.inputs.append(right)
        self.input_names.append(right_names)
        self.conditions.append(condition)
        self.schema += [n for n in right.schema if n not in self.source]
        self.source.update(dict.fromkeys(right.schema, k))
        return True

    def children(self) -> list[_Op]:
        return list(self.inputs)

    @property
    def detail(self) -> str:  # type: ignore[override]
        text = " and ".join(str(c) for c in self.conditions)
        if not self.merges:
            return text
        labels = [_input_label(op) for op in self.inputs]
        order = "; ".join(
            f"{' '.join(labels[i] for i in a)} x {' '.join(labels[i] for i in b)}"
            f" -> {rows}"
            for a, b, rows in self.merges
        )
        return f"{text} | order: {order}"

    def apply(self, *tables: ColumnBatch) -> ColumnBatch:
        ids = self._row_ids(tables)
        taken: dict[tuple[int, int], ColumnVector] = {}
        columns = {}
        for name in self.schema:
            index = self.source[name]
            source = tables[index].columns[name]
            picked = taken.get((index, id(source)))
            if picked is None:
                picked = taken[index, id(source)] = source.take(ids[index])
            columns[name] = picked
        return ColumnBatch(self.schema, columns, len(ids[0]))

    def _row_ids(self, tables: tuple[ColumnBatch, ...]) -> list[np.ndarray]:
        """One row-id vector per input: the joined rows in FROM order."""
        edges = []
        for (i, k), pairs in self.edges.items():
            codes_i, codes_k, size = _key_codes(
                [tables[i].columns[a] for a, _ in pairs],
                [tables[k].columns[b] for _, b in pairs],
            )
            edges.append((i, k, codes_i, codes_k, size))
        live = [
            _Component((i,), {i: np.arange(t.length, dtype=np.int64)}, True)
            for i, t in enumerate(tables)
        ]
        self.merges = []
        candidates: dict[tuple, tuple] = {}
        while len(live) > 1:
            best = None
            for x, a in enumerate(live):
                for b in live[x + 1:]:
                    key = (a.inputs, b.inputs)
                    if key not in candidates:
                        candidates[key] = _candidate(a, b, edges)
                    found = candidates[key]
                    if found is None:
                        continue
                    rank = (found[0], sorted(a.inputs + b.inputs))
                    if best is None or rank < best[0]:
                        best = (rank, a, b, found)
            _, a, b, (rows, a_codes, b_codes, a_counts, b_counts) = best
            self.merges.append((a.inputs, b.inputs, rows))
            if rows == 0:
                return [np.empty(0, np.int64)] * len(tables)
            a_first = a.inputs[-1] < b.inputs[0]
            b_first = b.inputs[-1] < a.inputs[0]
            if b_first or (not a_first and len(b_codes) > len(a_codes)):
                # Probe with the component wholly first in FROM order, so
                # the merge keeps that order; when the two interleave, build
                # on the smaller one.
                a, b = b, a
                a_codes, b_codes, b_counts = b_codes, a_codes, a_counts
            probe, build = _match(a_codes, b_codes, b_counts)
            ids = {i: v[probe] for i, v in a.ids.items()}
            ids.update((i, v[build]) for i, v in b.ids.items())
            merged = _Component(
                tuple(sorted(a.inputs + b.inputs)), ids,
                a.ordered and b.ordered and a.inputs[-1] < b.inputs[0],
            )
            live = [c for c in live if c is not a and c is not b] + [merged]
            candidates = {
                key: found for key, found in candidates.items()
                if a.inputs not in key and b.inputs not in key
            }
        (final,) = live
        ids = [final.ids[i] for i in range(len(tables))]
        if not final.ordered:
            # LSD: one stable pass per input, last input first.  Each row's
            # id tuple is distinct, so the order is the tuples' sort order.
            order = np.arange(len(ids[0]), dtype=np.int64)
            for v, table in zip(ids[::-1], tables[::-1]):
                order = order[_stable_order(v[order], table.length)]
            ids = [v[order] for v in ids]
        return ids


def _candidate(a: _Component, b: _Component, edges: list[tuple]) -> Optional[tuple]:
    """Merging ``a`` with ``b``: (rows, a codes, b codes, a counts, b counts),
    or ``None`` when no edge links them.  Several edges (a cycle in the
    join graph) fold into one joint code."""
    a_parts: list[np.ndarray] = []
    b_parts: list[np.ndarray] = []
    sizes: list[int] = []
    for i, k, codes_i, codes_k, edge_size in edges:
        if i in a.ids and k in b.ids:
            a_parts.append(a.rows_of(i, codes_i))
            b_parts.append(b.rows_of(k, codes_k))
        elif k in a.ids and i in b.ids:
            a_parts.append(a.rows_of(k, codes_k))
            b_parts.append(b.rows_of(i, codes_i))
        else:
            continue
        sizes.append(edge_size)
    if not a_parts:
        return None
    if len(a_parts) == 1:
        a_codes, b_codes, size = a_parts[0], b_parts[0], sizes[0]
    else:
        a_codes, b_codes, size = _joint_codes(a_parts, b_parts, sizes)
    a_counts = np.bincount(a_codes, minlength=size)
    b_counts = np.bincount(b_codes, minlength=size)
    return int(a_counts @ b_counts), a_codes, b_codes, a_counts, b_counts


class _JoinOp(_Op):
    """A LEFT JOIN, a join with a residual or non-equi condition, or an
    equi-join whose key resolves on neither side (which matches nothing)."""

    kind = "join"

    def __init__(self, left: _Op, right: _Op, node: LogicalJoin) -> None:
        super().__init__()
        self.inputs = [left, right]
        self.join_kind = node.kind
        self.condition = node.condition
        left_names = set(left.schema)
        self.input_names = [left_names, set(right.schema)]
        # Orient each equi-pair by the input whose schema resolves its
        # first ref, as the row engine does with a non-NULL first left row.
        self.keys = [
            (a, b) if resolve_column(a, left_names) is not None else (b, a)
            for a, b in _extract_equi_keys(node.condition)
        ]
        self.schema = left.schema + [n for n in right.schema if n not in left_names]
        self.condition_kernel = compile_kernel(node.condition, self.schema)
        # A condition that is exactly its equi-pairs needs no residual
        # pass: code-matched candidates satisfy it by construction (null
        # keys are excluded, which the equality conjunct would reject too).
        self.pure_equi = _is_pure_equi(node.condition)

    def children(self) -> list[_Op]:
        return list(self.inputs)

    @property
    def detail(self) -> str:  # type: ignore[override]
        return str(self.condition)

    @staticmethod
    def _key_column(ref: ColumnRef, batch: ColumnBatch) -> ColumnVector:
        key = resolve_column(ref, batch.columns)
        if key is None:
            return ColumnVector.all_null(batch.length)
        return batch.columns[key]

    def apply(self, left: ColumnBatch, right: ColumnBatch) -> ColumnBatch:
        right_names = self.input_names[1]
        if self.keys:
            left_codes, right_codes, size = _key_codes(
                [self._key_column(l, left) for l, _ in self.keys],
                [self._key_column(r, right) for _, r in self.keys],
            )
            cand_left, cand_right = _match(
                left_codes, right_codes, np.bincount(right_codes, minlength=size)
            )
        else:
            # No equi-key: every pair is a candidate, in the row engine's
            # left-major nested-loop order.
            cand_left = np.repeat(np.arange(left.length, dtype=np.int64), right.length)
            cand_right = np.tile(np.arange(right.length, dtype=np.int64), left.length)
        # Residual check over candidate pairs, mirroring the row engine's
        # per-candidate eval_expr (skipped for pure equi-conditions).
        if cand_left.size and not self.pure_equi:
            needed = self.condition_kernel.col_keys
            columns = {}
            for name in needed:
                if name in right_names:
                    columns[name] = right.columns[name].take(cand_right)
                else:
                    columns[name] = left.columns[name].take(cand_left)
            candidates = ColumnBatch(needed, columns, cand_left.size)
            keep = self.condition_kernel.truth(candidates)
            cand_left = cand_left[keep]
            cand_right = cand_right[keep]
        if self.join_kind == "left":
            matched = np.zeros(left.length, np.bool_)
            matched[cand_left] = True
            unmatched = np.flatnonzero(~matched)
            if unmatched.size:
                all_left = np.concatenate([cand_left, unmatched])
                all_right = np.concatenate(
                    [cand_right, np.full(unmatched.size, -1, np.int64)]
                )
                order = _stable_order(all_left, left.length)
                cand_left = all_left[order]
                cand_right = all_right[order]
        taken: dict[tuple[str, int], ColumnVector] = {}
        columns = {}
        for name in self.schema:
            if name in right_names:
                source = right.columns[name]
                cache_key = ("r", id(source))
                picked = taken.get(cache_key)
                if picked is None:
                    picked = taken[cache_key] = _take_padded(source, cand_right)
            else:
                source = left.columns[name]
                cache_key = ("l", id(source))
                picked = taken.get(cache_key)
                if picked is None:
                    picked = taken[cache_key] = source.take(cand_left)
            columns[name] = picked
        return ColumnBatch(self.schema, columns, len(cand_left))


def _take_padded(vec: ColumnVector, indexes: np.ndarray) -> ColumnVector:
    """Gather with ``-1`` meaning NULL (LEFT JOIN fill)."""
    negative = indexes < 0
    if not negative.any():
        return vec.take(indexes)
    if len(vec) == 0:
        return ColumnVector.all_null(len(indexes))
    taken = vec.take(np.where(negative, 0, indexes))
    mask = negative | taken.null_mask()
    if vec.kind == "object":
        data = taken.data.copy()
        data[negative] = None
        return ColumnVector("object", data, mask)
    return ColumnVector(vec.kind, taken.data, mask, taken.dictionary)


# ----------------------------------------------------------------------
# Sort / limit
# ----------------------------------------------------------------------

class _SortOp(_UnaryOpBase):
    kind = "sort"

    def __init__(self, child: _Op, node: LogicalSort) -> None:
        super().__init__(child)
        self.schema = list(child.schema)
        self.order = [
            (compile_kernel(o.expr, child.schema), o.descending)
            for o in node.order_by
        ]
        self.order_by = node.order_by

    @property
    def detail(self) -> str:  # type: ignore[override]
        return ", ".join(str(o.expr) for o in self.order_by)

    def apply(self, table: ColumnBatch) -> ColumnBatch:
        indexes = np.arange(table.length, dtype=np.int64)
        # Successive stable sorts, least-significant key first — identical
        # to the row engine's reversed() loop over order_by.
        for kernel, descending in reversed(self.order):
            indexes = _sort_pass(indexes, kernel.eval(table), descending)
        return gather(table, indexes)


def _sort_pass(
    indexes: np.ndarray, vec: ColumnVector, descending: bool
) -> np.ndarray:
    """One stable sort pass by ``vec``, refining the current order.

    Equivalent to the row engine's stable sort by ``_sort_key`` — NULLs
    first ascending (last descending), then by value — realised as a value
    pass (NULL lanes pinned to one constant so they tie) followed by a
    null-flag pass.  Object columns and NaN keys replay ``_sort_key``
    itself: Python sorts with NaN are order-dependent, so only the exact
    same comparison sequence reproduces them.
    """
    kind = vec.kind
    if kind == "object" or (
        kind == "float" and bool(np.isnan(vec.data).any())
    ):
        keys = [_sort_key(v) for v in vec.to_pylist()]
        current = indexes.tolist()
        current.sort(key=keys.__getitem__, reverse=descending)
        return np.array(current, np.int64)
    data = vec.data
    mask = vec.mask
    if mask is not None:
        # Pin NULL lanes to a single constant so the value pass leaves
        # their relative order to the null-flag pass alone.  (Computed
        # vectors can hold arbitrary garbage under the mask.)
        data = np.where(mask, data.dtype.type(0), data)
    permuted = data[indexes]
    if descending:
        sub = _stable_desc_argsort(permuted)
    else:
        sub = np.argsort(permuted, kind="stable")
    indexes = indexes[sub]
    if mask is not None and mask.any():
        flags = (~mask)[indexes]  # False (NULL) sorts first ascending
        if descending:
            sub = _stable_desc_argsort(flags)
        else:
            sub = np.argsort(flags, kind="stable")
        indexes = indexes[sub]
    return indexes


class _LimitOp(_UnaryOpBase):
    kind = "limit"

    def __init__(self, child: _Op, count: int) -> None:
        super().__init__(child)
        self.count = count
        self.schema = list(child.schema)
        self.detail = str(count)

    def apply(self, batch: ColumnBatch) -> ColumnBatch:
        # The row engine's ``rows[:count]``, after the child ran in full.
        stop = len(range(batch.length)[:self.count])
        return batch if stop == batch.length else gather(batch, np.arange(stop))


# ----------------------------------------------------------------------
# Plan compilation and execution
# ----------------------------------------------------------------------

def compile_plan(node: LogicalNode, database: Database, catalog: Catalog) -> _Op:
    """Lower a logical plan to a tree of columnar operators.

    Lowering applies two rewrites (see the module docstring): WHERE
    conjuncts are pushed below joins, and scans emit only the columns
    some ancestor reads.  Each operator runs once over its whole input
    (``root.run()`` returns one batch).  ``catalog`` must be the one the
    plan was resolved in: an empty row-layout table takes its column
    names from it.
    """
    return _lower(node, database, catalog, None)


def _lower(
    node: LogicalNode,
    database: Database,
    catalog: Catalog,
    need: Optional[set[str]],
) -> _Op:
    """``compile_plan`` with ``need``: the column names ancestors read
    (``None``: every column).  One set serves a whole SELECT block, so a
    scan may keep a few names only another scan of the block needs."""
    args = (database, catalog)
    if isinstance(node, LogicalScan):
        return _ScanOp(node, *args, need)
    if isinstance(node, LogicalSubquery):
        return _AliasOp(_lower(node.child, *args, None), node.binding)
    if isinstance(node, LogicalFilter):
        child = _lower(node.child, *args, _plus(need, [node.predicate]))
        return _push_filter(child, node.predicate)
    if isinstance(node, LogicalJoin):
        need = _plus(need, [node.condition])
        left = _lower(node.left, *args, need)
        right = _lower(node.right, *args, need)
        if node.kind == "inner" and _is_pure_equi(node.condition):
            run = left if isinstance(left, _MultiJoinOp) else _MultiJoinOp(left)
            if run.add(right, node.condition):
                return run
        return _JoinOp(left, right, node)
    if isinstance(node, LogicalAggregate):
        extra = list(node.group_by)
        if node.having is not None:
            extra.append(node.having)
        child = _lower(node.child, *args, _select_need(node.items, extra))
        return _AggregateOp(child, node)
    if isinstance(node, LogicalProject):
        child = _lower(node.child, *args, _select_need(node.items, []))
        return _ProjectOp(child, node)
    if isinstance(node, LogicalSort):
        order = [o.expr for o in node.order_by]
        return _SortOp(_lower(node.child, *args, _plus(need, order)), node)
    if isinstance(node, LogicalLimit):
        return _LimitOp(_lower(node.child, *args, need), node.count)
    raise PlanError(f"cannot execute {node!r}")


def _plus(need: Optional[set[str]], exprs: Iterable[Expr]) -> Optional[set[str]]:
    """``need``, updated in place with the bare name of every column
    ``exprs`` read; ``None`` (every column) stays ``None``."""
    if need is not None:
        for expr in exprs:
            add_column_names(expr, need)
    return need


def _select_need(items: list[SelectItem], exprs: list[Expr]) -> Optional[set[str]]:
    """Columns a select list (plus GROUP BY/HAVING) reads; ``*`` reads all.

    ``count(*)`` reads none, so a scan under it may emit zero columns.
    """
    if any(isinstance(item.expr, Star) for item in items):
        return None
    return _plus(set(), [item.expr for item in items] + exprs)


def _conjuncts(predicate: Expr) -> list[Expr]:
    """The top-level ``and`` operands of ``predicate``, left to right."""
    if isinstance(predicate, BinaryOp) and predicate.op == "and":
        return _conjuncts(predicate.left) + _conjuncts(predicate.right)
    return [predicate]


def _push_filter(child: _Op, predicate: Expr) -> _Op:
    """WHERE over ``child``, each conjunct as deep below the joins as legal.

    Each conjunct is compiled once against ``child``'s schema — in order,
    so a bad column raises exactly as compiling the whole predicate did —
    and the kernel's resolved column keys pick its input (see
    :func:`_filter_target`).  Conjuncts that cannot move stay in one
    filter on top, in their original order.  Row order is unchanged: a
    filter keeps relative order, and joins emit left-major output in
    ascending build order, so filtering an input first yields the same
    sequence as filtering the joined rows.
    """
    pushed: dict[tuple[_JoinOp | _MultiJoinOp, int], list[tuple[Expr, Kernel]]] = {}
    top: list[tuple[Expr, Kernel]] = []
    names = set(child.schema)
    for conjunct in _conjuncts(predicate):
        kernel = compile_kernel(conjunct, names)
        target = _filter_target(child, set(kernel.col_keys))
        if target is None:
            top.append((conjunct, kernel))
        else:
            pushed.setdefault(target, []).append((conjunct, kernel))
    for (join, index), conjuncts in pushed.items():
        join.inputs[index] = _FilterOp(join.inputs[index], conjuncts)
    return _FilterOp(child, top) if top else child


def _filter_target(
    op: _Op, keys: set[str]
) -> Optional[tuple[_JoinOp | _MultiJoinOp, int]]:
    """The deepest join input that alone supplies ``keys``, as (join, index).

    Walks down the first-input spine of the joins, through each join's
    later inputs from the last one back.  A later input qualifies only
    under an INNER join (never a LEFT JOIN's NULL-supplying side); it is
    passed only when it has none of the keys, since the join output takes
    the later input's copy of a shared name.  Past them all, the first
    input supplies every key and the walk goes on into it.  A
    FROM-subquery is a leaf: filters go above it, never into it.  ``None``:
    stay above ``op``.
    """
    target = None
    while isinstance(op, (_JoinOp, _MultiJoinOp)):
        for index in range(len(op.inputs) - 1, 0, -1):
            names = op.input_names[index]
            if op.join_kind == "inner" and keys <= names:
                return op, index
            if keys & names:
                return target
        target = (op, 0)
        op = op.inputs[0]
    return target


def walk_ops(root: _Op) -> list[_Op]:
    """All operators under ``root`` in pre-order."""
    out = [root]
    for child in root.children():
        out.extend(walk_ops(child))
    return out


class ColumnarExecutor:
    """Executes logical plans, each operator once over its whole input."""

    def __init__(self, database: Database, catalog: Catalog, tracer=None) -> None:
        self.database = database
        self.catalog = catalog
        self.tracer = tracer

    def compile(self, plan: LogicalNode) -> _Op:
        """Lower ``plan`` to a tree of columnar operators."""
        return compile_plan(plan, self.database, self.catalog)

    def run(self, root: _Op) -> list[Row]:
        """Drive a compiled operator tree and materialise the result rows."""
        started = perf_counter()
        rows = root.run().to_rows()
        elapsed = perf_counter() - started
        self._report(root, elapsed, len(rows))
        return rows

    def execute(self, plan: LogicalNode) -> list[Row]:
        """Compile and run ``plan`` in one step."""
        return self.run(self.compile(plan))

    def _report(self, root: _Op, elapsed: float, result_rows: int) -> None:
        if self.tracer is not None and self.tracer.enabled:
            for index, op in enumerate(walk_ops(root)):
                self.tracer.span(
                    "sql", f"columnar.{op.kind}", 0.0, op.seconds,
                    scope=str(index), **op.stats(),
                )
            self.tracer.instant(
                "sql", "columnar.query", 0.0,
                rows=result_rows, elapsed_s=round(elapsed, 6),
            )
