"""Flat key-value text files used for configs and reports, and atomic writes.

Format: one `key = value` per line; blank lines and lines starting with `#`
are ignored. Keys are validated by each consumer; unknown keys are an error
there, not here. Every file the program writes, text or binary, goes
through `write_replace`, so no reader ever sees a half-written file.
"""

from __future__ import annotations

import contextlib
import os

from .errors import ConfigError


def read_kv(path) -> dict[str, str]:
    """The file's items; a missing, unreadable or non-UTF-8 file is a ConfigError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    out: dict[str, str] = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def write_kv(path, items: dict[str, str]) -> None:
    with write_replace(path) as fh:
        fh.write(format_kv(items))


def format_kv(items: dict[str, str]) -> str:
    return "".join(f"{key} = {value}\n" for key, value in items.items())


def require_keys(items: dict[str, str], known: set[str], context: str) -> None:
    """Reject unknown keys, naming the first offender."""
    for key in items:
        if key not in known:
            raise ConfigError(f"{context}: unknown config key {key!r}")


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
