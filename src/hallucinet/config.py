"""Typed JSON loading: each config dataclass is its own schema.

A missing key takes the field's default and a nested object builds the
nested dataclass. An unknown key, a missing required key or a value of
the wrong JSON type raises ConfigError naming the dotted key: a bool is
not an int, a float is not an int and a string is not a bool; an int is
accepted as a float, `X | None` accepts null, and a list of the right
length becomes a tuple. Range checks stay in each `__post_init__`.
"""
from __future__ import annotations

import dataclasses
import json
import types
import typing

_NoneType = type(None)


class ConfigError(ValueError):
    """A config value is unknown, missing or of the wrong type."""


def _dotted(key: str, name: str) -> str:
    return f"{key}.{name}" if key else name  # the empty key is the whole document


def check_keys(doc, key: str, names) -> dict:
    """`doc` if it is a JSON object whose keys are all among `names`."""
    typed(dict, doc, key or "the document")
    unknown = sorted(doc.keys() - set(names))
    if unknown:
        raise ConfigError("unknown key " + ", ".join(_dotted(key, n) for n in unknown))
    return doc


def keywords(cls, doc, key: str, given=()) -> dict:
    """The keyword arguments of dataclass `cls` that the JSON object `doc`
    sets; the fields named in `given` are the caller's to set."""
    fields = [f for f in dataclasses.fields(cls) if f.name not in given]
    check_keys(doc, key, [f.name for f in fields])
    for f in fields:
        if f.name not in doc and f.default is dataclasses.MISSING \
                and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{_dotted(key, f.name)} is missing")
    hints = typing.get_type_hints(cls)
    return {name: typed(hints[name], value, _dotted(key, name)) for name, value in doc.items()}


def build(cls, doc, key: str, **given):
    """Dataclass `cls` from the JSON object `doc` at dotted `key`."""
    return cls(**given, **keywords(cls, doc, key, given))


def typed(hint, value, key: str):
    """`value` as the type `hint` names, or ConfigError naming `key`."""
    if dataclasses.is_dataclass(hint):
        return build(hint, value, key)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        if value is None and _NoneType in args:
            return None
        (arm,) = [a for a in args if a is not _NoneType]
        return typed(arm, value, key)
    if origin is tuple and type(value) is list:
        arms = args[:1] * len(value) if args[-1:] == (...,) else args
        if len(arms) == len(value):
            return tuple(typed(a, v, f"{key}[{i}]") for i, (a, v) in enumerate(zip(arms, value)))
    elif origin is list and type(value) is list:
        return [typed(args[0], v, f"{key}[{i}]") for i, v in enumerate(value)]
    elif origin is dict and type(value) is dict:
        return {k: typed(args[1], v, f"{key}.{k}") for k, v in value.items()}
    elif hint is float and type(value) is int:
        return float(value)
    elif type(value) is hint:
        return value
    expected = hint.__name__ if isinstance(hint, type) and not args else str(hint)
    raise ConfigError(f"{key} must be {expected}, got {json.dumps(value)}")
