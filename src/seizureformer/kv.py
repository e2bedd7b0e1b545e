"""The one key=value codec behind run configs, manifests and checkpoints.

A key's type comes from its dataclass field (``field_types``).  Text forms:
``true``/``false`` for bools, comma-separated ints for tuples, ``repr`` for
floats (which must be finite), and ints and strings as written.  Parsing is
strict, and every error names the key.  Files are written atomically: to a
temp file in the same directory, then ``os.replace``.
"""

from __future__ import annotations

import dataclasses
import math
import os
import typing
from pathlib import Path

import numpy as np


def field_types(cls) -> dict[str, type]:
    """Field name -> the type its values parse to (``X | None`` reads as X)."""
    hints = typing.get_type_hints(cls)
    kinds = {}
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        if typing.get_origin(hint) not in (None, tuple):
            hint = typing.get_args(hint)[0]
        kinds[f.name] = typing.get_origin(hint) or hint
    return kinds


def format_value(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def parse_value(key: str, raw: str, kind: type):
    """Strict inverse of ``format_value`` for a key of type ``kind``."""
    raw = raw.strip()
    try:
        if kind is bool and raw in ("true", "false"):
            return raw == "true"
        if kind is tuple:
            return tuple(int(v) for v in raw.split(","))
        if kind is float and math.isfinite(value := float(raw)):
            return value
        if kind in (int, str):
            return kind(raw)
    except ValueError:
        pass
    expected = {bool: "true or false", tuple: "comma-separated ints", float: "a finite float"}.get(kind, kind.__name__)
    raise ValueError(f"{key} expects {expected}, got {raw!r}")


def write_atomic(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text`` in one step; a failed write leaves it as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8", newline="\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_manifest(path: str | Path, entries: dict) -> None:
    """Flat key=value run manifest, keys sorted."""
    write_atomic(path, "".join(f"{key}={format_value(entries[key])}\n" for key in sorted(entries)))
