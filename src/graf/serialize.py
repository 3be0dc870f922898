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


_FMT_WIDTH = 39  # sign, "0.", 3 zeros, 17 digits and a point place after 16
_POW10 = 10.0 ** np.arange(23)  # 10**k is exact in binary64 for k <= 22


def _scaled_digits(a: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """``a * 10**(16 - exponent)`` rounded half to even, as int64, by
    Dekker's exact product ``p + e``; exact where it lies in
    ``[10**16, 10**17)`` (see ``notes/decisions.md``)."""
    b = _POW10[16 - exponent]
    a_hi = 134217729.0 * a
    a_hi -= a_hi - a
    b_hi = 134217729.0 * b
    b_hi -= b_hi - b
    a_lo, b_lo = a - a_hi, b - b_hi
    p = a * b
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p.astype(np.int64) + np.rint(e).astype(np.int64)


def fmt_codes(values: np.ndarray) -> np.ndarray:
    """ASCII codes of ``fmt(v)`` for each of ``values``: a ``(39, len)``
    uint8 array with one column per value, whose non-NUL codes read down
    the column are the text.

    Finite non-integral ``v`` with ``1e-4 <= |v| < 1e15`` is printed in
    array arithmetic with the correctly rounded 17 digits of ``%.17g``
    (see ``notes/decisions.md``); every other value goes through ``fmt``.
    """
    values = np.asarray(values, dtype=np.float64)
    a = np.abs(values)
    fast = (a >= 1e-4) & (a < 1e15)
    a = np.where(fast, a, 0.5)
    fast &= a != np.trunc(a)
    # Decimal exponent: log10 is a first guess, the 17 digits decide.
    exponent = np.floor(np.log10(a)).astype(np.int8)
    scaled = _scaled_digits(a, exponent)
    off = (scaled < 10**16) | (scaled >= 10**17)
    exponent[off] += np.where(scaled[off] < 10**16, -1, 1)
    scaled[off] = _scaled_digits(a[off], exponent[off])
    fast &= (scaled >= 10**16) & (scaled < 10**17)
    # The 17 digits from the last, in int32 halves: 8 digits, then 9.
    # Trailing zeros become NUL.
    rest = np.stack(np.divmod(scaled, 10**9)).astype(np.int32)
    kept = np.stack([rest[1] != 0, np.zeros(len(values), dtype=bool)])
    digits = np.empty((2, 9, len(values)), dtype=np.uint8)
    for place in range(8, -1, -1):
        quotient = rest // 10
        digit = rest - 10 * quotient
        kept |= digit != 0
        digits[:, place] = (digit + ord("0")) * kept
        rest = quotient
    codes = np.zeros((_FMT_WIDTH, len(values)), dtype=np.uint8)
    codes[6::2] = digits.reshape(18, -1)[1:]
    codes[0] = (values < 0) * np.uint8(ord("-"))
    # "0." and -1 - exponent zeros before the digits; or a point after
    # digit `exponent`.
    codes[1:3] = (exponent < 0) * np.array([[ord("0")], [ord(".")]], dtype=np.uint8)
    codes[3:6] = (np.arange(3, dtype=np.int8)[:, None] < -1 - exponent) * np.uint8(ord("0"))
    codes[7::2] = (np.arange(16, dtype=np.int8)[:, None] == exponent) * np.uint8(ord("."))
    slow = np.flatnonzero(~fast)
    texts = np.array([fmt(v) for v in values[slow].tolist()], dtype=f"S{_FMT_WIDTH}")
    codes[:, slow] = texts.view(np.uint8).reshape(-1, _FMT_WIDTH).T
    return codes


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
