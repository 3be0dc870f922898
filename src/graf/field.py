"""Gaussian cost matrices, assignments and field evaluation.

A cost matrix ``c`` holds independent standard Gaussian entries ``c(i, j)``.
An assignment is a permutation of the columns, held as a 0-based column
array ``u``: row ``i`` takes column ``u[i]``.  Its field value is

    g(c, u) = n**-0.5 * sum_i c(i, u[i]),

so every coordinate of the field is standard Gaussian.  The correlation
between two coordinates is the proportion of agreeing positions, which ties
the field's L2 geometry to the Hamming distance on permutations.  Text
output writes assignments 1-based (:func:`permutation_texts`).
"""

from __future__ import annotations

import math
from os import PathLike, fspath
from typing import IO, Iterable, Sequence

import numpy as np
from scipy.special import ndtri

SEED_MAX = 2**64 - 1


def permutation_texts(table: np.ndarray | Sequence[Sequence[int]]) -> list[str]:
    """Text of each row of 0-based column indices (such as a permutation
    table) in 1-based, comma-separated one-line notation: ``[1, 0, 2]``
    becomes ``"2,1,3"``."""
    return [",".join(map(str, row)) for row in (np.asarray(table) + 1).tolist()]


def _assignment(u: np.ndarray | Sequence[int], n: int | None = None) -> np.ndarray:
    """``u`` as an ``intp`` column array, checked to hold each of
    ``0..n-1`` exactly once; ``n`` defaults to its length."""
    columns = np.asarray(u, dtype=np.intp)
    if n is None:
        n = columns.size
    if n < 1 or columns.shape != (n,) or (np.sort(columns) != np.arange(n)).any():
        raise ValueError(f"not an assignment of columns 0..{n - 1}: {columns.tolist()}")
    return columns


class CostMatrix:
    """Square matrix of real assignment costs, immutable after construction."""

    __slots__ = ("_entries",)

    def __init__(self, entries: np.ndarray | Iterable[Iterable[float]]):
        arr = np.array(entries, dtype=np.float64, copy=True)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"cost matrix must be square, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("cost matrix must have size at least 1")
        if not np.isfinite(arr).all():
            raise ValueError("cost matrix entries must all be finite")
        arr.flags.writeable = False
        self._entries = arr

    @property
    def entries(self) -> np.ndarray:
        """Read-only ``(n, n)`` float array."""
        return self._entries

    @property
    def n(self) -> int:
        return self._entries.shape[0]

    def __repr__(self) -> str:
        return f"CostMatrix(n={self.n})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CostMatrix):
            return NotImplemented
        return self.n == other.n and bool((self._entries == other._entries).all())

    def __hash__(self) -> int:
        return hash((self.n, self._entries.tobytes()))


#: Matrix entries drawn per sampling pass, which bounds the sampler's
#: scratch memory and, in the replication kernel, the matrices held at once.
SAMPLE_CHUNK_ENTRIES = 2**16
#: Largest size the sampler draws: one matrix of doubles is then 128 MiB.
SAMPLE_N_MAX = 4096


def sample_chunk_size(n: int) -> int:
    """Matrices of size ``n`` per sampling pass (at least one)."""
    if not 1 <= n <= SAMPLE_N_MAX:
        raise ValueError(f"matrix size must lie in 1..{SAMPLE_N_MAX}, got {n}")
    return max(1, SAMPLE_CHUNK_ENTRIES // (n * n))


def sample_cost_entries(n: int, seeds: Sequence[int]) -> np.ndarray:
    """Draw one ``n x n`` matrix of i.i.d. standard Gaussian costs per seed.

    Returns a ``(len(seeds), n, n)`` array.  The generator is pinned so
    that ``(n, seed)`` determines a matrix bit-for-bit on every platform:

    1. a PCG64 stream is seeded with ``seed`` (via numpy's ``SeedSequence``),
    2. the first ``n*n`` raw 64-bit outputs are mapped to uniforms through
       their top 53 bits, ``u = ((r >> 11) + 0.5) * 2**-53`` (never 0 or 1),
    3. each ``u`` goes through the inverse normal CDF (Cephes ``ndtri``),
    4. values fill the matrix row by row.

    Every step is elementwise, so sampling in passes of
    :func:`sample_chunk_size` matrices changes no bit.
    """
    step = sample_chunk_size(n)
    for seed in seeds:
        if not 0 <= seed <= SEED_MAX:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    out = np.empty((len(seeds), n, n))
    raw = np.empty((min(step, len(seeds)), n * n), dtype=np.uint64)
    for start in range(0, len(seeds), step):
        chunk = seeds[start : start + step]
        for row, seed in zip(raw, chunk):
            row[:] = np.random.PCG64(seed).random_raw(n * n)
        u = ((raw[: len(chunk)] >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
        ndtri(u, out=out[start : start + len(chunk)].reshape(len(chunk), n * n))
    return out


def sample_cost_matrix(n: int, seed: int) -> CostMatrix:
    """The cost matrix of :func:`sample_cost_entries` for one seed."""
    return CostMatrix(sample_cost_entries(n, [seed])[0])


def field_value(c: CostMatrix, u: np.ndarray | Sequence[int]) -> float:
    """Normalized cost ``n**-0.5 * sum_i c(i, u[i])`` of assignment ``u``."""
    picked = c.entries[np.arange(c.n), _assignment(u, c.n)]
    return float(picked.sum() / math.sqrt(c.n))


def correlation(u: np.ndarray | Sequence[int], v: np.ndarray | Sequence[int]) -> float:
    """Correlation of the field at ``u`` and ``v``: agreeing positions / n."""
    u = _assignment(u)
    return int((u == _assignment(v, len(u))).sum()) / len(u)


def write_matrix_csv(c: CostMatrix, target: str | PathLike[str] | IO[str]) -> None:
    """Write a cost matrix as CSV: a ``# n=<n>`` header line, then n rows
    of n floats with 17 significant digits."""
    lines = [f"# n={c.n}"]
    for row in c.entries:
        lines.append(",".join(format(x, ".17g") for x in row))
    text = "\n".join(lines) + "\n"
    if hasattr(target, "write"):
        target.write(text)  # type: ignore[union-attr]
    else:
        with open(target, "w", encoding="ascii") as fh:
            fh.write(text)


def read_matrix_csv(source: str | PathLike[str] | IO[str]) -> CostMatrix:
    """Read a cost matrix written by :func:`write_matrix_csv`.

    A malformed file raises ``ValueError``; when ``source`` is a path, the
    message starts with ``<path>:<line>:``.
    """
    if hasattr(source, "read"):
        text, name = source.read(), None  # type: ignore[union-attr]
    else:
        # Undecodable bytes become U+FFFD and are reported with their line.
        with open(source, "r", encoding="ascii", errors="replace") as fh:
            text, name = fh.read(), fspath(source)

    def error(lineno: int, message: str) -> ValueError:
        return ValueError(message if name is None else f"{name}:{lineno}: {message}")

    lines = []
    for lineno, line in enumerate(text.splitlines(), 1):
        column = line.find("\ufffd") + 1
        if column:
            raise error(lineno, f"non-ASCII byte at column {column}")
        if line.strip():
            lines.append((lineno, line.strip()))
    lineno, header = lines[0] if lines else (1, "")
    if not header.startswith("# n="):
        raise error(lineno, "cost matrix CSV must start with a '# n=<n>' line")
    try:
        n = int(header[4:])
    except ValueError:
        raise error(lineno, f"malformed size header: {header!r}") from None
    rows = lines[1:]
    if len(rows) != n:
        raise error(lines[-1][0], f"expected {n} rows, found {len(rows)}")
    entries = []
    for lineno, row in rows:
        try:
            values = [float(cell) for cell in row.split(",")]
        except ValueError as exc:
            raise error(lineno, str(exc)) from None
        if len(values) != n:
            raise error(lineno, "row length does not match declared size")
        if not all(map(math.isfinite, values)):
            raise error(lineno, "cost matrix entries must all be finite")
        entries.append(values)
    return CostMatrix(entries)
