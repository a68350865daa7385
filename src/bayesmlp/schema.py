"""The one JSON type rule, stdlib only: every JSON file bayesmlp reads (a
config file's sections, a dataset manifest, a chain sidecar) is built
through it into the dataclass that describes it. A key must name an init
field; a field without a default must be given; a value must have the JSON
type of its field's annotation. Any breach is a ConfigError, which
``chainio`` reports for a sidecar as a ChainFileError.
"""

from __future__ import annotations

import json
import sys
import typing
from dataclasses import MISSING, fields
from enum import Enum
from pathlib import Path


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration, or a JSON document
    that breaks the type rule."""


_JSON_TYPES = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string",
               dict: "a JSON object"}


def json_value(where: str, value, hint):
    """value, checked against the type hint of the field it sets.

    A bool is true or false; an int is a JSON integer (not a bool, not a
    float); a float is a finite integer or float; a tuple is a JSON list
    of its element type; an Enum is given by its value; ``X | None`` also
    takes null.
    """
    args = typing.get_args(hint)
    if type(None) in args:
        if value is None:
            return None
        hint, args = args[0], typing.get_args(args[0])
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a JSON list, got {value!r}")
        return tuple(json_value(f"{where}[{i}]", v, args[0]) for i, v in enumerate(value))
    if isinstance(hint, type) and issubclass(hint, Enum):
        try:
            return hint(value)
        except ValueError:
            raise ConfigError(f"{where} must be one of {[m.value for m in hint]}, got {value!r}") from None
    if hint is float:
        ok = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    else:
        ok = isinstance(value, hint)
    if not ok or (isinstance(value, bool) and hint is not bool):
        raise ConfigError(f"{where} must be {_JSON_TYPES[hint]}, got {value!r}")
    return value


def from_section(cls, name: str, doc, keys=None, hint_names=None):
    """An instance of the dataclass cls built from the JSON object doc.

    The object takes the init fields of cls (or those named in keys); a
    key it leaves out takes its field's default, and every value must have
    the JSON type of its field's annotation. hint_names binds the names
    that cls's annotations use beyond its module's globals.
    """
    doc = json_value(name, doc, dict)
    hints = typing.get_type_hints(cls, localns=hint_names)
    keys = keys or [f.name for f in fields(cls) if f.init]
    unknown = set(doc) - set(keys)
    if unknown:
        raise ConfigError(f"unknown {name} fields: {sorted(unknown)}; expected {sorted(keys)}")
    missing = [f.name for f in fields(cls) if f.name in keys and f.name not in doc
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"missing {name} fields: {missing}")
    values = {key: json_value(f"{name}.{key}", value, hints[key]) for key, value in doc.items()}
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from None


def json_file(name: str, path) -> dict:
    """The JSON object in the file at path, which errors call name's file."""
    where = f"{name} file {path}"
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:  # not JSON, or not text
        raise ConfigError(f"{where} is not valid JSON: {exc}") from None
    return json_value(where, doc, dict)
