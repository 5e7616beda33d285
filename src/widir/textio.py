"""Flat key-value text files used for configs and reports, and atomic text writes.

Format: one `key = value` per line; blank lines and lines starting with `#`
are ignored. Keys are validated by each consumer; unknown keys are an error
there, not here. `write_replace` writes any text file that another phase
reads.
"""

from __future__ import annotations

import contextlib
import os
from typing import Iterable

from .errors import ConfigError


def read_kv(path) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
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
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in items.items():
            fh.write(f"{key} = {value}\n")


def format_kv(items: dict[str, str]) -> str:
    return "".join(f"{key} = {value}\n" for key, value in items.items())


def require_keys(items: dict[str, str], known: set[str], context: str) -> None:
    """Reject unknown keys, naming the first offender."""
    for key in items:
        if key not in known:
            raise ConfigError(f"{context}: unknown config key {key!r}")


def write_replace(path, chunks: Iterable[str]) -> None:
    """Write `chunks` to `<path>.tmp`, then rename it over `path`.

    A reader sees the old file or the new one, never a part; a failed write
    removes the temporary and leaves `path` as it was.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
