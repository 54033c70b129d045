"""One dict codec for every config dataclass.

A config class inherits :class:`Codec` and gets ``to_dict``/``from_dict``
from two rules instead of a hand-written serializer pair:

* :func:`encode` works field by field: nested dataclasses become mappings,
  enums their values, tuples lists.  The result survives
  ``json.loads(json.dumps(...))``.
* :func:`decode` follows each field's resolved type hint.  Scalars are
  checked strictly (a ``bool`` must be a bool, an ``int`` must not be a
  bool, a ``float`` accepts an int), missing keys take the field defaults,
  and a non-mapping payload, an unknown key, a wrong type or an unknown
  enum value raises ``ValueError`` (or the class's ``payload_error``)
  naming the field path.  The built object's ``validate()`` runs last.

A field annotated ``Annotated[Base, registry]``, where ``registry`` maps
names to dataclasses, holds one of them: it is encoded as
``{"name": obj.name, **fields}`` and decoded through the registry.

This module imports nothing from the package, so every layer can use it.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import types
from typing import (
    Annotated,
    Any,
    ClassVar,
    Mapping,
    TypeVar,
    Union,
    cast,
    get_args,
    get_origin,
    get_type_hints,
)

T = TypeVar("T")
C = TypeVar("C", bound="Codec")

#: Key that names the chosen class of a registry-typed field.
TAG = "name"


class Codec:
    """Mixin that gives a dataclass :func:`encode`/:func:`decode` as
    ``to_dict``/``from_dict``."""

    #: Exception type raised for a malformed payload of this class.
    payload_error: ClassVar[type[ValueError]] = ValueError

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable document; :meth:`from_dict` rebuilds an equal
        object from it."""
        return cast(dict[str, Any], encode(self))

    @classmethod
    def from_dict(cls: type[C], payload: object) -> C:
        """Rebuild a validated object from :meth:`to_dict` output."""
        return decode(cls, payload)


@functools.cache
def _fields(cls: Any) -> tuple[tuple[str, Any, bool], ...]:
    """``(name, resolved hint, required)`` of every field of ``cls``."""
    hints = get_type_hints(cls, include_extras=True)
    return tuple(
        (
            f.name,
            hints[f.name],
            f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING,
        )
        for f in dataclasses.fields(cls)
    )


def _registry(hint: Any) -> Mapping[str, type] | None:
    """The name -> class mapping of an ``Annotated[Base, registry]`` hint."""
    if get_origin(hint) is Annotated:
        for extra in hint.__metadata__:
            if isinstance(extra, Mapping):
                return extra
    return None


def encode(value: Any) -> Any:
    """The JSON-ready form of a config value (see the module docstring)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out: dict[str, Any] = {}
        for name, hint, _ in _fields(type(value)):
            item = getattr(value, name)
            registry = _registry(hint)
            if registry is None:
                out[name] = encode(item)
            else:
                if registry.get(item.name) is not type(item):
                    raise ValueError(f"{type(item).__name__} is not registered for {name!r}")
                out[name] = {TAG: item.name, **encode(item)}
        return out
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [encode(item) for item in value]
    if isinstance(value, dict):
        return {key: encode(item) for key, item in value.items()}
    return value


def decode(cls: type[T], payload: object) -> T:
    """Build a validated ``cls`` from :func:`encode` output."""
    return cast(T, _decode(cls, payload, cls.__name__, ValueError))


def copy(obj: T) -> T:
    """A deep copy of a config object through its encoded form."""
    return decode(type(obj), encode(obj))


def replace(obj: T, **changes: object) -> T:
    """``obj`` with the named fields replaced; an unknown name raises
    ``AttributeError`` (the override rule of the policy builders and
    ``SimConfig.copy``)."""
    names = {f.name for f in dataclasses.fields(cast(Any, obj))}
    for key in changes:
        if key not in names:
            raise AttributeError(f"{type(obj).__name__} has no field {key!r}")
    return cast(T, dataclasses.replace(cast(Any, obj), **changes))


def _decode(hint: Any, value: object, path: str, error: type[ValueError]) -> Any:
    registry = _registry(hint)
    if registry is not None:
        if not isinstance(value, Mapping):
            raise error(f"{path}: expected a mapping, got {value!r}")
        name = value.get(TAG)
        chosen = registry.get(name) if isinstance(name, str) else None
        if chosen is None:
            raise error(f"{path}: unknown {TAG} {name!r}; known: {sorted(registry)}")
        rest = {key: item for key, item in value.items() if key != TAG}
        return _decode_dataclass(chosen, rest, path, error)
    if dataclasses.is_dataclass(hint) and isinstance(hint, type):
        return _decode_dataclass(hint, value, path, error)
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        member = next((m for m in hint if m.value == value and type(m.value) is type(value)), None)
        if member is None:
            raise error(f"{path}: unknown {hint.__name__} {value!r}")
        return member
    if hint is bool:
        if type(value) is not bool:
            raise error(f"{path}: expected a bool, got {value!r}")
        return value
    if hint is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise error(f"{path}: expected an int, got {value!r}")
        return value
    if hint is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise error(f"{path}: expected a number, got {value!r}")
        try:
            return float(value)
        except OverflowError:
            raise error(f"{path}: {value!r} is out of range") from None
    if hint is str:
        if not isinstance(value, str):
            raise error(f"{path}: expected a string, got {value!r}")
        return value
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union or origin is types.UnionType:
        if value is None and type(None) in args:
            return None
        failures: list[str] = []
        for arm in args:
            if arm is type(None):
                continue
            try:
                return _decode(arm, value, path, error)
            except ValueError as exc:
                failures.append(str(exc))
        raise error("; ".join(failures))
    if origin is list or origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise error(f"{path}: expected a list, got {value!r}")
        if origin is list:
            return [_decode(args[0], item, f"{path}[{i}]", error) for i, item in enumerate(value)]
        if len(args) == 2 and args[1] is Ellipsis:
            args = (args[0],) * len(value)
        elif len(args) != len(value):
            raise error(f"{path}: expected {len(args)} items, got {len(value)}")
        return tuple(
            _decode(arm, item, f"{path}[{i}]", error)
            for i, (arm, item) in enumerate(zip(args, value))
        )
    if origin is dict:
        if not isinstance(value, Mapping):
            raise error(f"{path}: expected a mapping, got {value!r}")
        return {
            _decode(args[0], key, f"{path} key", error): _decode(
                args[1], item, f"{path}[{key!r}]", error
            )
            for key, item in value.items()
        }
    raise TypeError(f"{path}: the codec cannot decode {hint!r}")


def _decode_dataclass(cls: type, value: object, path: str, error: type[ValueError]) -> Any:
    error = getattr(cls, "payload_error", error)
    if not isinstance(value, Mapping):
        raise error(f"{path}: expected a mapping, got {value!r}")
    fields = _fields(cls)
    unknown = sorted(set(value) - {name for name, _, _ in fields}, key=str)
    if unknown:
        raise error(f"{path}: unknown field(s) {unknown}")
    kwargs: dict[str, Any] = {}
    for name, hint, required in fields:
        if name in value:
            kwargs[name] = _decode(hint, value[name], f"{path}.{name}", error)
        elif required:
            raise error(f"{path}: missing field {name!r}")
    obj = cls(**kwargs)
    validate = getattr(obj, "validate", None)
    if validate is not None:
        validate()
    return obj
