"""One typed reader and writer for every node of the scenario tree.

Every node of a scenario or sweep spec -- and the architecture config with
its cluster and core blocks, which ``system.overrides`` re-parameterizes --
is a frozen dataclass whose annotations say what each field holds.
:func:`read` builds a node from its JSON form, :func:`write` turns a node
back into that form, and :func:`check_fields`, called at the top of every
node's ``__post_init__``, rejects a wrongly typed field however the node
was built.  Every failure is a :class:`ScenarioError` whose ``field`` is
the dotted path of the offending value (``system.overrides.cluster.
l2_mshrs``), never a traceback.

The rules follow the annotations, never a class name:

* ``int`` takes an int, or a whole-number float, which :func:`read` turns
  into an int; bools and other floats are rejected.
* ``float`` takes an int or a float and keeps it unchanged.
* ``str`` and ``bool`` are strict.
* ``Optional[X]`` takes ``null`` or an ``X``.
* ``Tuple[X, ...]`` is read from a list; only the outer level becomes a
  tuple, so nested lists stay lists.
* ``Mapping[str, object]`` takes any object.
* A nested node, or a ``Union`` holding one, is read from a mapping.
* A key that names no field fails as ``<path>.<key>: unknown field``.
* A ``ScenarioError`` raised by a node's ``__post_init__`` gets the node's
  path put in front of its field; a bare ``ValueError`` becomes a
  ``ScenarioError`` on the node's path.

A node adapts its on-disk form in three ways, all kept in the node: a
field's ``metadata={"key": ...}`` names its JSON key; a static
``_decode(data)`` turns the raw JSON value into a mapping of keys (a format
tag, a shorthand); a static ``_encode(data)`` adjusts the written mapping.

This module imports nothing from ``repro``, so every node can use it.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping
from typing import Dict, NamedTuple, Tuple, Union, get_args, get_origin, get_type_hints

_NONE = type(None)


class ScenarioError(ValueError):
    """A scenario, sweep or configuration node failed to parse or validate.

    ``field`` holds the dotted path of the offending field (e.g.
    ``workloads[0].sharing.fraction``); the message always starts with it,
    followed by ``reason``.
    """

    def __init__(self, field_path: str, message: str) -> None:
        self.field = field_path
        self.reason = message
        super().__init__(f"{field_path}: {message}" if field_path else message)


class _Field(NamedTuple):
    name: str
    key: str
    annotation: object
    required: bool


_FIELDS: Dict[type, Tuple[_Field, ...]] = {}


def _fields(cls: type) -> Tuple[_Field, ...]:
    """The init fields of dataclass ``cls`` with resolved annotations
    (resolved once per class)."""
    cached = _FIELDS.get(cls)
    if cached is None:
        hints = get_type_hints(cls)
        cached = _FIELDS[cls] = tuple(
            _Field(
                f.name,
                f.metadata.get("key", f.name),
                hints[f.name],
                f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING,
            )
            for f in dataclasses.fields(cls)
            if f.init
        )
    return cached


def _join(path: str, field: str) -> str:
    if not path:
        return field
    if not field:
        return path
    return path + field if field.startswith("[") else f"{path}.{field}"


def _under(path: str, exc: ScenarioError) -> ScenarioError:
    return type(exc)(_join(path, exc.field), exc.reason)


def _got(value: object) -> str:
    if value is None or isinstance(value, (bool, int, float, str)):
        return "null" if value is None else repr(value)
    return type(value).__name__


_SCALAR_NAMES = {
    _NONE: "null",
    bool: "a boolean",
    int: "an integer",
    float: "a number",
    str: "a string",
}


def _describe(annotation) -> str:
    origin = get_origin(annotation)
    if origin is Union:
        return " or ".join(_describe(arg) for arg in get_args(annotation))
    if origin is tuple:
        return "a list"
    if origin is Mapping:
        return "an object"
    return _SCALAR_NAMES.get(annotation) or f"an object ({annotation.__name__})"


def _matches(annotation, value) -> bool:
    origin = get_origin(annotation)
    if origin is Union:
        return any(_matches(arg, value) for arg in get_args(annotation))
    if annotation is object:
        return True
    if isinstance(value, bool):
        return annotation is bool
    if annotation is float:
        return isinstance(value, (int, float))
    if annotation is _NONE:
        return value is None
    return isinstance(value, origin or annotation)


def _check(annotation, value, path: str) -> None:
    if not _matches(annotation, value):
        raise ScenarioError(
            path, f"expected {_describe(annotation)}, got {_got(value)}"
        )
    if get_origin(annotation) is tuple:
        item = get_args(annotation)[0]
        for index, entry in enumerate(value):
            _check(item, entry, f"{path}[{index}]")


def check_fields(obj) -> None:
    """Raise :class:`ScenarioError` naming the first field of dataclass
    ``obj`` whose value does not match its annotation."""
    for f in _fields(type(obj)):
        _check(f.annotation, getattr(obj, f.name), f.key)


def read(cls, data, path: str = "", base=None):
    """Build node ``cls`` from its JSON form ``data``.

    ``path`` is the node's field path, put in front of every error.  Keys
    absent from ``data`` keep ``base``'s values when a ``base`` node is
    given (nested nodes recurse onto ``base``'s), else the field defaults.
    """
    decode = getattr(cls, "_decode", None)
    if decode is not None:
        try:
            data = decode(data)
        except ScenarioError as exc:
            raise _under(path, exc) from None
    if not isinstance(data, Mapping):
        raise ScenarioError(path, f"expected an object, got {_got(data)}")
    fields = _fields(cls)
    keys = [f.key for f in fields]
    for key in data:
        if key not in keys:
            raise ScenarioError(
                _join(path, str(key)), f"unknown field; known fields: {keys}"
            )
    values = {}
    for f in fields:
        where = _join(path, f.key)
        if f.key in data:
            values[f.name] = _read_value(
                f.annotation,
                data[f.key],
                where,
                None if base is None else getattr(base, f.name),
            )
        elif f.required and base is None:
            raise ScenarioError(where, "is required")
    try:
        if base is None:
            return cls(**values)
        return dataclasses.replace(base, **values) if values else base
    except ScenarioError as exc:
        raise _under(path, exc) from None
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from None


def _read_value(annotation, value, path: str, base):
    origin = get_origin(annotation)
    if origin is Union:
        if value is None:
            return None
        options = [arg for arg in get_args(annotation) if arg is not _NONE]
        nodes = [arg for arg in options if dataclasses.is_dataclass(arg)]
        if nodes and isinstance(value, Mapping):
            return read(nodes[0], value, path, base)
        if len(options) != 1:
            return value
        annotation, origin = options[0], get_origin(options[0])
    if origin is tuple and isinstance(value, (list, tuple)):
        item = get_args(annotation)[0]
        return tuple(
            _read_value(item, entry, f"{path}[{index}]", None)
            for index, entry in enumerate(value)
        )
    if origin is Mapping and isinstance(value, Mapping):
        return dict(value)
    if dataclasses.is_dataclass(annotation):
        return read(annotation, value, path, base)
    if annotation is int and isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def write(obj) -> Dict[str, object]:
    """The JSON form of node ``obj``: its fields in declaration order,
    nested nodes written the same way, tuples as lists."""
    data = {f.key: _plain(getattr(obj, f.name)) for f in _fields(type(obj))}
    encode = getattr(obj, "_encode", None)
    return data if encode is None else encode(data)


def _plain(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return write(value)
    if isinstance(value, (list, tuple)):
        return [_plain(entry) for entry in value]
    if isinstance(value, Mapping):
        return {key: _plain(entry) for key, entry in value.items()}
    return value
