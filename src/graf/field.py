"""Core objects: permutations, Gaussian cost matrices, field evaluation.

A cost matrix ``c`` holds independent standard Gaussian entries ``c(i, j)``.
An assignment is a permutation ``u`` of ``{1..n}``; its field value is

    g(c, u) = n**-0.5 * sum_{i=1..n} c(i, u(i)),

so every coordinate of the field is standard Gaussian.  The correlation
between two coordinates is the proportion of agreeing positions, which ties
the field's L2 geometry to the Hamming distance on permutations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from os import PathLike, fspath
from typing import IO, Iterable, Sequence

import numpy as np
from scipy.special import ndtri

# A field coordinate is a plain real number in standard-Gaussian units.
FieldValue = float

SEED_MAX = 2**64 - 1


def permutation_texts(table: np.ndarray | Sequence[Sequence[int]]) -> list[str]:
    """Text of each row of 0-based column indices (such as a permutation
    table) in 1-based, comma-separated one-line notation: ``[1, 0, 2]``
    becomes ``"2,1,3"``.  :meth:`Permutation.from_text` reads it back."""
    return [",".join(map(str, row)) for row in (np.asarray(table) + 1).tolist()]


@dataclass(frozen=True)
class Permutation:
    """Bijection of ``{1..n}`` in one-line notation: ``u(i) = mapping[i-1]``.

    Values are 1-based at every interface; use :meth:`zero_based` for
    array indexing.
    """

    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        mapping = tuple(int(v) for v in self.mapping)
        object.__setattr__(self, "mapping", mapping)
        n = len(mapping)
        if n < 1:
            raise ValueError("permutation must have size at least 1")
        if sorted(mapping) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of 1..{n}: {mapping}")

    @property
    def n(self) -> int:
        return len(self.mapping)

    def __call__(self, i: int) -> int:
        """Image of position ``i`` (1-based)."""
        if not 1 <= i <= self.n:
            raise ValueError(f"position {i} outside 1..{self.n}")
        return self.mapping[i - 1]

    def zero_based(self) -> np.ndarray:
        """Column indices as a 0-based integer array."""
        return np.asarray(self.mapping, dtype=np.intp) - 1

    @classmethod
    def from_zero_based(cls, indices: Iterable[int]) -> "Permutation":
        return cls(tuple(int(j) + 1 for j in indices))

    def to_text(self) -> str:
        """Comma-separated one-line notation, e.g. ``"2,1,3"``."""
        return permutation_texts([self.zero_based()])[0]

    @classmethod
    def from_text(cls, text: str) -> "Permutation":
        try:
            values = tuple(int(part) for part in text.strip().split(","))
        except ValueError as exc:
            raise ValueError(f"malformed permutation text: {text!r}") from exc
        return cls(values)


def identity_permutation(n: int) -> Permutation:
    """The identity assignment ``(1, 2, ..., n)``."""
    if n < 1:
        raise ValueError("permutation size must be at least 1")
    return Permutation(tuple(range(1, n + 1)))


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


def sample_chunk_size(n: int) -> int:
    """Matrices of size ``n`` per sampling pass (at least one)."""
    if n < 1:
        raise ValueError("matrix size must be at least 1")
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


def _check_same_size(u: Permutation, v: Permutation) -> int:
    if u.n != v.n:
        raise ValueError(f"permutation sizes differ: {u.n} vs {v.n}")
    return u.n


def field_value(c: CostMatrix, u: Permutation) -> FieldValue:
    """Normalized cost ``n**-0.5 * sum_i c(i, u(i))`` of assignment ``u``."""
    if c.n != u.n:
        raise ValueError(f"dimension mismatch: matrix {c.n}, permutation {u.n}")
    picked = c.entries[np.arange(c.n), u.zero_based()]
    return float(picked.sum() / math.sqrt(c.n))


def correlation(u: Permutation, v: Permutation) -> float:
    """Correlation of the field at ``u`` and ``v``: agreeing positions / n."""
    n = _check_same_size(u, v)
    agree = sum(1 for a, b in zip(u.mapping, v.mapping) if a == b)
    return agree / n


def hamming_distance(u: Permutation, v: Permutation) -> int:
    """Number of positions where the assignments disagree."""
    n = _check_same_size(u, v)
    return n - sum(1 for a, b in zip(u.mapping, v.mapping) if a == b)


def l2_distance(u: Permutation, v: Permutation) -> float:
    """L2 distance between field coordinates: ``sqrt(2 * hamming / n)``."""
    n = _check_same_size(u, v)
    return math.sqrt(2.0 * hamming_distance(u, v) / n)


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
