"""Flat key-value text files used for configs and reports, JSON documents,
and atomic writes.

Format: one `key = value` per line; blank lines and lines starting with `#`
are ignored. `from_kv` and `to_kv` are the one codec between such items and
a dataclass: each field's declared type (int, finite float, str or ISO date)
reads and writes its value, and the dataclass's defaults fill absent keys.
`load_json` is the one JSON reader: the standard library's `json` codec on
UTF-8 text, which must hold an object. `read_json` applies it to a file and
`json_field` takes one exactly typed field from the object. Every failure
becomes the caller's error class, naming the caller's context.
Every file the program writes, text or binary, goes through `write_replace`,
so no reader ever sees a half-written file.
"""

from __future__ import annotations

import contextlib
import dataclasses
import datetime as dt
import json
import math
import os
import typing
from typing import Mapping

from .errors import ConfigError, WidirError


def parse_kv(text: str, context: str) -> dict[str, str]:
    """The text's items; a line without `=` or a repeated key is a ConfigError naming `context:line`."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{context}:{lineno}: expected 'key = value', got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in out:
            raise ConfigError(f"{context}:{lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def read_kv(path) -> dict[str, str]:
    """The file's items; a missing, unreadable or non-UTF-8 file is a ConfigError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    return parse_kv(text, str(path))


def write_kv(path, items: dict[str, str]) -> None:
    with write_replace(path) as fh:
        fh.write(format_kv(items))


def format_kv(items: dict[str, str]) -> str:
    return "".join(f"{key} = {value}\n" for key, value in items.items())


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


# the value types a kv file holds: how each is read from text and written back
_DECODE = {int: int, float: _finite_float, str: str, dt.date: dt.date.fromisoformat}
_ENCODE = {int: str, float: repr, str: str, dt.date: dt.date.isoformat}


def parse_value(kind: type, text: str, context: str, key: str):
    """`text` read as a `kind` value; an unreadable one is a ConfigError naming `context` and `key`."""
    try:
        return _DECODE[kind](text)
    except ValueError as exc:
        raise ConfigError(f"{context}: bad value for {key!r}: {exc}") from exc


def _value_fields(cls) -> dict[str, tuple[type, bool]]:
    """Each field of dataclass `cls` whose type a kv value holds: its type, and whether it is required."""
    hints = typing.get_type_hints(cls)
    return {
        f.name: (hints[f.name], f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING)
        for f in dataclasses.fields(cls)
        if hints[f.name] in _DECODE
    }


def parse_fields(cls, items: Mapping[str, str], context: str, prefix: str = "", skip=()) -> dict:
    """Each item `<prefix><field>` as value field `field` of dataclass `cls`, read by the field's type.
    An item that names no value field (or one in `skip`) and an unreadable value are ConfigErrors
    naming `context` and the key."""
    fields = _value_fields(cls)
    out = {}
    for key, text in items.items():
        name = key[len(prefix):] if key.startswith(prefix) else None
        if name not in fields or name in skip:
            raise ConfigError(f"{context}: unknown config key {key!r}")
        out[name] = parse_value(fields[name][0], text, context, key)
    return out


def from_kv(cls, items: Mapping[str, str], context: str, prefix: str = "", /, **given):
    """An instance of dataclass `cls`: its value fields read from `items` by `parse_fields`,
    a default for each absent one, the rest from `given`. A missing item for a field without
    a default is a ConfigError naming `context` and the key; a rule of `cls` the values
    break raises the class's error, naming `context`."""
    kwargs = {**parse_fields(cls, items, context, prefix, skip=given), **given}
    missing = [name for name, (_, required) in _value_fields(cls).items() if required and name not in kwargs]
    if missing:
        raise ConfigError(f"{context}: missing required key {prefix + missing[0]!r}")
    try:
        return cls(**kwargs)
    except WidirError as exc:
        raise type(exc)(f"{context}: {exc}") from exc


def to_kv(obj, prefix: str = "", omit: tuple[str, ...] = ()) -> dict[str, str]:
    """The value fields of dataclass instance `obj` but `omit`, as `<prefix><field>` text items:
    ints and strings as they are, floats by `repr`, dates in ISO form."""
    return {
        prefix + name: _ENCODE[kind](getattr(obj, name))
        for name, (kind, _) in _value_fields(type(obj)).items()
        if name not in omit
    }


def load_json(text: str | bytes, context: str, error: type[Exception]) -> dict:
    """The JSON object `text` holds (bytes must be UTF-8).

    Bad UTF-8, a parse error, a document nested too deep to parse and a
    value that is not an object are an `error` naming `context`.
    """
    try:
        doc = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except (ValueError, RecursionError) as exc:  # ValueError covers UnicodeDecodeError
        raise error(f"{context}: malformed JSON: {exc}") from exc
    if type(doc) is not dict:
        raise error(f"{context}: not a JSON object but a {type(doc).__name__}")
    return doc


def read_json(path, context: str, error: type[Exception]) -> dict:
    """`load_json` of the file at `path`; a missing or unreadable file is also an `error` naming `context`."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise error(f"{context}: cannot read: {exc}") from exc
    return load_json(data, context, error)


def json_field(doc: dict, key: str, kind: type, context: str, error: type[Exception]):
    """`doc[key]`, which must be present and of exactly type `kind` (so a bool is
    not an int); otherwise an `error` naming `context` and `key`."""
    value = doc.get(key)
    if type(value) is not kind:
        if key not in doc:
            raise error(f"{context}: no field {key!r}")
        raise error(f"{context}: field {key!r} must be a {kind.__name__}, not {type(value).__name__}")
    return value


@contextlib.contextmanager
def write_replace(path, mode: str = "w"):
    """Open `<path>.tmp` for writing ("w" for UTF-8 text, "wb" for bytes) and
    rename it over `path` when the block ends.

    A reader sees the old file or the new one, never a part; if the block
    raises, the temporary is removed, `path` is left as it was and the
    error propagates. Text is written with "\n" line ends on every platform.
    """
    tmp = f"{path}.tmp"
    text = "b" not in mode
    try:
        with open(tmp, mode, encoding="utf-8" if text else None, newline="" if text else None) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
