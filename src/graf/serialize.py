"""Deterministic text output: 17-digit floats, JSON/CSV emitters, atomic writes.

All numeric output is formatted with 17 significant digits so files are
byte-identical across runs and round-trip exactly through ``float``.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from os import PathLike
from typing import Iterable

import numpy as np


def fmt(x: float) -> str:
    """Format a float with 17 significant digits, always float-shaped."""
    text = format(float(x), ".17g")
    if not any(ch in text for ch in ".enai"):  # e/n/a/i catch exp, nan, inf
        text += ".0"
    return text


def fmt_column(values: np.ndarray) -> list[str]:
    """``[fmt(v) for v in values]`` in one ``%``-formatting pass.

    ``%.17g`` prints what ``fmt`` prints except on integral values, where
    it prints no ``.``; only those go through ``fmt`` again.
    """
    values = np.asarray(values, dtype=np.float64)
    texts = ("%.17g\n" * len(values) % tuple(values.tolist())).split("\n")
    texts.pop()
    for i in np.flatnonzero(values == np.trunc(values)).tolist():
        texts[i] = fmt(values[i])
    return texts


def _emit(obj: object, pieces: list[str], indent: int) -> None:
    pad = "  " * indent
    if obj is None:
        pieces.append("null")
    elif isinstance(obj, bool):
        pieces.append("true" if obj else "false")
    elif isinstance(obj, int):
        pieces.append(str(obj))
    elif isinstance(obj, float):
        # JSON has no NaN/Infinity literals.
        pieces.append(fmt(obj) if math.isfinite(obj) else "null")
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            pieces.append(f"{pad}  {json.dumps(key)}: ")
            _emit(value, pieces, indent + 1)
            pieces.append(",\n" if i < len(obj) - 1 else "\n")
        pieces.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not len(obj):
            pieces.append("[]")
            return
        pieces.append("[\n")
        for i, value in enumerate(obj):
            pieces.append(pad + "  ")
            _emit(value, pieces, indent + 1)
            pieces.append(",\n" if i < len(obj) - 1 else "\n")
        pieces.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def to_json_text(obj: object) -> str:
    """Render nested dicts/lists/scalars as deterministic, parseable JSON."""
    pieces: list[str] = []
    _emit(obj, pieces, 0)
    pieces.append("\n")
    return "".join(pieces)


def _csv_cell(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt(value)
    text = str(value)
    if any(ch in text for ch in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def to_csv_text(header: list[str], rows: list[list[object]]) -> str:
    """Render a table as CSV with a header line and LF line endings."""
    lines = [",".join(_csv_cell(cell) for cell in header)]
    for row in rows:
        if len(row) != len(header):
            raise ValueError("row length does not match header")
        lines.append(",".join(_csv_cell(cell) for cell in row))
    return "\n".join(lines) + "\n"


def atomic_write_text(path: str | PathLike[str], chunks: Iterable[str]) -> None:
    """Write the text chunks in order via a temp file and rename, so a
    failure, also one raised while producing a chunk, leaves no partial
    file and any old file at ``path`` untouched."""
    directory = os.path.dirname(os.fspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            # mkstemp creates the file 0600; give it the mode open() would.
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.writelines(chunks)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
