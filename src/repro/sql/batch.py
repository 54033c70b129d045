"""Numpy-backed columnar storage: typed vectors, null bitmaps, dictionaries.

The physical layout of the columnar SQL engine:

* :class:`ColumnVector` — one column of one batch/table.  Values live in a
  typed ``np.ndarray`` (``int64``/``float64``/``bool``), NULLs in a
  separate boolean bitmap (``True`` = NULL), and string columns are
  dictionary-encoded: ``int32`` codes into a *sorted* array of unique
  values, so equality and ordering can be decided directly on the codes
  (or per unique value) instead of per row.  Dictionaries are NUL-free:
  numpy's ``str_`` drops trailing ``\x00``, so a string column holding a
  NUL anywhere stays ``kind="object"``, as do columns whose values don't
  fit a single scalar type — a Python-object array that every kernel
  handles with exact row-engine semantics.
* :class:`ColumnBatch` — a batch of rows as a mapping from visible column
  name (bare and binding-qualified) to :class:`ColumnVector`; qualified
  aliases share the *same vector object* so qualification is free.
* :class:`ColumnTable` — a columnar-native base table.  It iterates as row
  dicts so the row engine and ``plan_schema`` work unchanged, while the
  columnar scan reads its vectors as they are.

Python rows (:data:`~repro.sql.semantics.Row` dicts) cross the boundary
only in ``from_rows``/``to_rows``; every batch and table column is a
:class:`ColumnVector`, so the engine interior is arrays end to end.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

import numpy as np

from .semantics import Row

#: Column kinds. "str" is dictionary-encoded; "object" is the exact-semantics
#: fallback for mixed-type or exotic values.
KINDS = ("int", "float", "bool", "str", "object")

_EMPTY_DICT = np.empty(0, dtype=np.str_)


def _object_array(values: Sequence) -> np.ndarray:
    # np.array() would try to broadcast nested sequences; fromiter never does.
    return np.fromiter(values, dtype=object, count=len(values))


class ColumnVector:
    """One typed column: data array + optional null bitmap (+ dictionary)."""

    __slots__ = ("kind", "data", "mask", "dictionary")

    def __init__(
        self,
        kind: str,
        data: np.ndarray,
        mask: Optional[np.ndarray] = None,
        dictionary: Optional[np.ndarray] = None,
    ) -> None:
        self.kind = kind
        self.data = data
        #: Boolean bitmap, ``True`` = NULL; ``None`` means no NULLs.  For
        #: ``object`` columns the data itself holds ``None`` at NULL lanes
        #: and the mask (when present) mirrors it.
        self.mask = mask
        #: Sorted unique values for ``kind == "str"`` (``data`` holds codes).
        self.dictionary = dictionary

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        nulls = 0 if self.mask is None else int(self.mask.sum())
        return f"ColumnVector(kind={self.kind!r}, n={len(self)}, nulls={nulls})"

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_values(cls, values: Sequence) -> "ColumnVector":
        """Infer the tightest kind for ``values`` and encode them.

        All-int -> int64, all-float -> float64, all-bool -> bool, all-str ->
        dictionary codes; anything mixed (including int+float, to preserve
        the exact Python types the row engine would return) -> object.
        """
        n = len(values)
        types = set(map(type, values))
        has_null = type(None) in types
        types.discard(type(None))
        mask: Optional[np.ndarray] = None
        if has_null:
            mask = np.fromiter((v is None for v in values), np.bool_, count=n)
        if types == {bool}:
            if has_null:
                data = np.fromiter(
                    (v is not None and v for v in values), np.bool_, count=n
                )
            else:
                data = np.fromiter(values, np.bool_, count=n)
            return cls("bool", data, mask)
        if types == {int}:
            try:
                if has_null:
                    data = np.fromiter(
                        (0 if v is None else v for v in values), np.int64, count=n
                    )
                else:
                    data = np.fromiter(values, np.int64, count=n)
            except OverflowError:
                return cls("object", _object_array(values), mask)
            return cls("int", data, mask)
        if types == {float}:
            if has_null:
                data = np.fromiter(
                    (0.0 if v is None else v for v in values), np.float64, count=n
                )
            else:
                data = np.fromiter(values, np.float64, count=n)
            return cls("float", data, mask)
        if types == {str}:
            valid = [v for v in values if v is not None] if has_null else values
            if "\x00" in "".join(valid):
                # numpy's str_ drops trailing NULs ("a\x00" would encode as
                # "a"), so such columns keep their exact Python strings.
                return cls("object", _object_array(values), mask)
            if has_null:
                # Build the dictionary from valid values only — NULL lanes
                # must not inject entries the row engine never sees (kernels
                # evaluate scalar functions once per dictionary entry).
                assert mask is not None
                dictionary, vcodes = np.unique(
                    np.array(valid, dtype=np.str_), return_inverse=True
                )
                codes = np.zeros(n, np.int64)
                codes[~mask] = vcodes
                return cls("str", codes.astype(np.int32), mask, dictionary)
            filled = np.array(list(values), dtype=np.str_)
            dictionary, codes = np.unique(filled, return_inverse=True)
            return cls("str", codes.astype(np.int32), mask, dictionary)
        return cls("object", _object_array(values), mask)

    @classmethod
    def empty(cls, kind: str) -> "ColumnVector":
        """A zero-length vector of ``kind`` (typed schema for empty tables)."""
        if kind == "int":
            return cls("int", np.empty(0, np.int64))
        if kind == "float":
            return cls("float", np.empty(0, np.float64))
        if kind == "bool":
            return cls("bool", np.empty(0, np.bool_))
        if kind == "str":
            return cls("str", np.empty(0, np.int32), None, _EMPTY_DICT)
        return cls("object", np.empty(0, object))

    @classmethod
    def all_null(cls, n: int) -> "ColumnVector":
        """``n`` NULLs (LEFT JOIN fill when the build side is empty)."""
        return cls("object", np.full(n, None, object), np.ones(n, np.bool_))

    @classmethod
    def constant(cls, value: object, n: int) -> "ColumnVector":
        """Broadcast one scalar to ``n`` lanes."""
        if value is None:
            return cls.all_null(n)
        t = type(value)
        if t is bool:
            return cls("bool", np.full(n, value, np.bool_))
        if t is int:
            try:
                return cls("int", np.full(n, value, np.int64))
            except OverflowError:
                pass
        elif t is float:
            return cls("float", np.full(n, value, np.float64))
        elif t is str and "\x00" not in value:  # type: ignore[operator]
            return cls(
                "str", np.zeros(n, np.int32), None, np.array([value], np.str_)
            )
        data = np.empty(n, object)
        for i in range(n):
            data[i] = value
        return cls("object", data, None)

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def null_mask(self) -> np.ndarray:
        """The null bitmap, materialising zeros when there are no NULLs."""
        if self.mask is None:
            return np.zeros(len(self.data), np.bool_)
        return self.mask

    def has_nulls(self) -> bool:
        return self.mask is not None and bool(self.mask.any())

    def to_pylist(self) -> list:
        """Decode to plain Python values (``None`` for NULL lanes)."""
        if self.kind == "str":
            out = self.dictionary[self.data].tolist()
        else:
            out = self.data.tolist()
        mask = self.mask
        if mask is not None and mask.any():
            for i in np.flatnonzero(mask).tolist():
                out[i] = None
        return out

    def value_at(self, i: int) -> object:
        """Decode a single lane."""
        if self.mask is not None and self.mask[i]:
            return None
        if self.kind == "str":
            return str(self.dictionary[self.data[i]])
        v = self.data[i]
        return v.item() if isinstance(v, np.generic) else v

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def take(self, indexes: np.ndarray) -> "ColumnVector":
        """Fancy-index gather; the dictionary is shared, never copied."""
        mask = self.mask[indexes] if self.mask is not None else None
        return ColumnVector(self.kind, self.data[indexes], mask, self.dictionary)


# ----------------------------------------------------------------------
# Column batches
# ----------------------------------------------------------------------

class ColumnBatch:
    """A batch of rows stored as parallel typed columns.

    ``columns`` maps every visible column name — bare (``l_suppkey``) and
    binding-qualified (``l.l_suppkey``) — to a :class:`ColumnVector` of
    ``length`` lanes.  Qualified aliases share the *same vector object* as
    their bare column, so qualification is free per batch instead of per
    row.
    """

    __slots__ = ("names", "columns", "length")

    def __init__(
        self,
        names: Sequence[str],
        columns: dict[str, ColumnVector],
        length: int,
    ) -> None:
        self.names = list(names)
        self.columns = columns
        self.length = length

    @classmethod
    def from_rows(cls, rows: Sequence[Row], names: Sequence[str]) -> "ColumnBatch":
        """Transpose homogeneous row dicts into a batch (engine boundary)."""
        columns = {
            n: ColumnVector.from_values([row[n] for row in rows]) for n in names
        }
        return cls(list(names), columns, len(rows))

    def to_rows(self) -> list[Row]:
        """Transpose the batch back into row dicts (engine boundary)."""
        names = self.names
        if not names:
            return [{} for _ in range(self.length)]
        decoded: dict[int, list] = {}
        cols: list[list] = []
        for n in names:
            vec = self.columns[n]
            lst = decoded.get(id(vec))
            if lst is None:
                lst = decoded[id(vec)] = vec.to_pylist()
            cols.append(lst)
        return [dict(zip(names, values)) for values in zip(*cols)]


def gather(batch: ColumnBatch, indexes: np.ndarray) -> ColumnBatch:
    """Select ``indexes`` from every column, preserving alias sharing."""
    taken: dict[int, ColumnVector] = {}
    columns: dict[str, ColumnVector] = {}
    for name in batch.names:
        source = batch.columns[name]
        picked = taken.get(id(source))
        if picked is None:
            picked = taken[id(source)] = source.take(indexes)
        columns[name] = picked
    return ColumnBatch(batch.names, columns, len(indexes))


# ----------------------------------------------------------------------
# Columnar-native tables
# ----------------------------------------------------------------------

class ColumnTable:
    """A base table stored as typed column vectors.

    Duck-types as a sequence of row dicts (``len``, iteration, indexing) so
    the row engine, ``plan_schema``, and existing callers treat it exactly
    like ``list[Row]`` — but the columnar scan reads its vectors directly,
    skipping per-row transposition entirely.  Unlike a ``list``, an empty
    ColumnTable still knows its schema.
    """

    __slots__ = ("names", "columns", "length")

    def __init__(
        self, names: Sequence[str], columns: dict[str, ColumnVector], length: int
    ) -> None:
        self.names = list(names)
        self.columns = columns
        self.length = length

    @classmethod
    def from_rows(
        cls, rows: Sequence[Row], names: Optional[Sequence[str]] = None
    ) -> "ColumnTable":
        """Encode row dicts column by column (engine boundary)."""
        if names is None:
            names = list(rows[0].keys()) if rows else []
        columns = {
            n: ColumnVector.from_values([row[n] for row in rows]) for n in names
        }
        return cls(list(names), columns, len(rows))

    def to_rows(self) -> list[Row]:
        """Decode the whole table to row dicts."""
        names = self.names
        if not names:
            return [{} for _ in range(self.length)]
        cols = [self.columns[n].to_pylist() for n in names]
        return [dict(zip(names, values)) for values in zip(*cols)]

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[Row]:
        return iter(self.to_rows())

    def __getitem__(self, i: int) -> Row:
        return {n: self.columns[n].value_at(i) for n in self.names}
