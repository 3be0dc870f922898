"""Gaussian cost matrices, assignments and field evaluation.

A cost matrix ``c`` holds independent standard Gaussian entries ``c(i, j)``.
An assignment is a permutation of the columns, held as a 0-based column
array ``u``: row ``i`` takes column ``u[i]``.  Its field value is

    g(c, u) = n**-0.5 * sum_i c(i, u[i]),

so every coordinate of the field is standard Gaussian.  The correlation
between two coordinates is the proportion of agreeing positions, which ties
the field's L2 geometry to the Hamming distance on permutations.  Text
output writes assignments 1-based, in one-line notation
(:func:`_permutation_codes`).
"""

from __future__ import annotations

import math
import operator
from os import PathLike, fspath
from typing import Iterable, Iterator, Sequence

import numpy as np

SEED_MAX = 2**64 - 1


def _permutation_codes(table: np.ndarray | Sequence[Sequence[int]]) -> np.ndarray:
    """ASCII codes of each row of 0-based column indices (such as a
    permutation table) in 1-based, comma-separated one-line notation, one
    column per row of ``table``: digits at even places, commas between.
    Row ``[1, 0, 2]`` becomes the column of ``"2,1,3"``.

    Rows hold 1 to 9 indices, each in ``0..8``, so every 1-based index is
    one digit; anything else raises ``ValueError``.
    """
    table = np.asarray(table)
    if table.ndim != 2 or not 1 <= table.shape[1] <= 9:
        raise ValueError(f"rows must hold 1 to 9 column indices, got shape {table.shape}")
    if table.size and not 0 <= table.min() <= table.max() <= 8:
        raise ValueError("column indices must lie in 0..8")
    codes = np.full((2 * table.shape[1] - 1, len(table)), ord(","), dtype=np.uint8)
    codes[::2] = table.T + ord("1")
    return codes


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
        # n * max|c| bounds every assignment sum, so a finite bound keeps all
        # sums finite.
        largest = float(np.abs(arr).max())
        if math.isinf(arr.shape[0] * largest):
            raise ValueError(
                f"n={arr.shape[0]} times the entry of magnitude {largest!r} overflows a float"
            )
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


# numpy's SeedSequence (pool of 4 words) and PCG64 seeding constants; see
# notes/decisions.md for the algorithm they take part in.
_MASK32 = 0xFFFFFFFF
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1


def _hash_constants(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiply constants of ``count`` successive SeedSequence
    hash steps, whose constant advances ``h -> h * mult``, as two
    ``(count, 1)`` ``uint32`` columns."""
    h = [init]
    for _ in range(count):
        h.append((h[-1] * mult) & _MASK32)
    column = np.array(h, dtype=np.uint32)[:, np.newaxis]
    return column[:-1], column[1:]


# Mixing the entropy takes 4 + 12 hash steps; generating 4 uint64 words, 8.
_MIX_XOR, _MIX_MULT = _hash_constants(_HASH_INIT_A, _HASH_MULT_A, 16)
_STATE_XOR, _STATE_MULT = _hash_constants(_HASH_INIT_B, _HASH_MULT_B, 8)


def _hash(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    values = (values ^ xor) * mult
    return values ^ (values >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    mixed = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return mixed ^ (mixed >> np.uint32(16))


def _seed_sequence_words(seeds: np.ndarray) -> np.ndarray:
    """``np.random.SeedSequence(seed).generate_state(4, np.uint64)`` of each
    ``uint64`` seed, as a ``(len(seeds), 4)`` array, in wrapping ``uint32``
    arithmetic across the batch."""
    # The pool's 4 words start as the seed's 32-bit words, low first; the
    # missing words hash as zeros, so seeds below 2**32 need no second path.
    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
    pool[0] = seeds & np.uint64(_MASK32)
    pool[1] = seeds >> np.uint64(32)
    pool = _hash(pool, _MIX_XOR[:4], _MIX_MULT[:4])
    for src in range(4):
        # Word src, hashed once per step, mixes into the other three words
        # in order; those three updates do not depend on each other.
        dst = [d for d in range(4) if d != src]
        step = slice(4 + 3 * src, 7 + 3 * src)
        pool[dst] = _mix(pool[dst], _hash(pool[src], _MIX_XOR[step], _MIX_MULT[step]))
    # Output value i hashes pool word i mod 4; consecutive values pair into
    # one uint64, low word first.
    state = _hash(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _STATE_XOR, _STATE_MULT).astype(np.uint64)
    return (state[0::2] | (state[1::2] << np.uint64(32))).T


#: Fewest seeds a sampling pass seeds in batch.  The batch costs about
#: 130 us of small numpy calls per pass and saves about 11 us per seed
#: against ``np.random.PCG64(seed)`` (n = 10, 2-core VM), so smaller
#: passes, such as every pass from n = 74 on, use numpy's constructor.
_SEED_BATCH_MIN = 12


def _raw_passes(n: int, seeds: np.ndarray) -> Iterator[np.ndarray]:
    """The first ``n*n`` raw outputs of ``np.random.PCG64(seed)`` for each
    ``uint64`` seed, as one ``(matrices, n*n)`` array per sampling pass of
    :func:`sample_chunk_size` seeds.  Each pass refills the previous pass's
    buffer, so a caller may change a pass in place.

    A pass of at least ``_SEED_BATCH_MIN`` seeds takes its PCG64 states
    from :func:`_seed_sequence_words`; one generator, reused for the pass,
    is set to each state and drawn from.
    """
    step = sample_chunk_size(n)
    raw = np.empty((min(step, len(seeds)), n * n), dtype=np.uint64)
    for start in range(0, len(seeds), step):
        batch = seeds[start : start + step]
        if len(batch) < _SEED_BATCH_MIN:
            for row, seed in zip(raw, batch.tolist()):
                row[:] = np.random.PCG64(seed).random_raw(n * n)
        else:
            generator = np.random.PCG64(0)
            for row, (w0, w1, w2, w3) in zip(raw, _seed_sequence_words(batch).tolist()):
                # PCG64's seeding: initstate = w0:w1, initseq = w2:w3 (128-bit).
                inc = ((w2 << 65) | (w3 << 1) | 1) & _MASK128
                state = ((((w0 << 64) | w1) + inc) * _PCG_MULT + inc) & _MASK128
                generator.state = {
                    "bit_generator": "PCG64",
                    "state": {"state": state, "inc": inc},
                    "has_uint32": 0,
                    "uinteger": 0,
                }
                row[:] = generator.random_raw(n * n)
        yield raw[: len(batch)]


def _seed_array(seeds: Sequence[int] | np.ndarray) -> np.ndarray:
    """``seeds`` as a ``uint64`` array; each must be an integer in ``0..SEED_MAX``."""
    if isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64 and seeds.ndim == 1:
        return seeds
    checked = [operator.index(seed) for seed in seeds]
    for seed in checked:
        if not 0 <= seed <= SEED_MAX:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return np.array(checked, dtype=np.uint64)


def sample_cost_entries(n: int, seeds: Sequence[int] | np.ndarray) -> np.ndarray:
    """Draw one ``n x n`` matrix of i.i.d. standard Gaussian costs per seed.

    ``seeds`` is a sequence of integers or a ``uint64`` array.  Returns a
    ``(len(seeds), n, n)`` array.  The generator is pinned so that
    ``(n, seed)`` determines a matrix bit-for-bit on every platform:

    1. a PCG64 stream is seeded with ``seed`` through numpy's
       ``SeedSequence`` algorithm; the PCG64 states of a sampling pass are
       derived in batch (see :func:`_raw_passes`), and the draws equal
       ``np.random.PCG64(seed)``'s bit for bit,
    2. the first ``n*n`` raw 64-bit outputs are mapped to uniforms through
       their top 53 bits, ``u = ((r >> 11) + 0.5) * 2**-53`` (never 0 or 1),
    3. each ``u`` goes through the inverse normal CDF (Cephes ``ndtri``,
       the ufunc ``scipy.special.ndtri`` names, loaded from its compiled
       file without the ``scipy.special`` package),
    4. values fill the matrix row by row.

    Every step is elementwise, so sampling in passes of
    :func:`sample_chunk_size` matrices changes no bit.
    """
    from graf.solvers import _ndtri  # graf.solvers imports this module

    ndtri = _ndtri()  # from scipy's compiled file, on first use, not at import
    sample_chunk_size(n)  # rejects a bad size before anything is allocated
    seeds = _seed_array(seeds)
    out = np.empty((len(seeds), n, n))
    start = 0
    for raw in _raw_passes(n, seeds):
        # Step 2 in place, in the pass's own rows of out: no temporaries.
        u = out[start : start + len(raw)].reshape(len(raw), n * n)
        raw >>= np.uint64(11)
        np.copyto(u, raw)
        u += 0.5
        u *= 2.0**-53
        ndtri(u, out=u)
        start += len(raw)
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


def write_matrix_csv(c: CostMatrix, path: str | PathLike[str]) -> None:
    """Write a cost matrix to the file at ``path`` as CSV: a ``# n=<n>``
    header line, then n rows of n floats with 17 significant digits."""
    lines = [f"# n={c.n}"]
    for row in c.entries:
        lines.append(",".join(format(x, ".17g") for x in row))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_matrix_csv(path: str | PathLike[str]) -> CostMatrix:
    """Read a cost matrix written by :func:`write_matrix_csv` from the file
    at ``path``.

    A malformed file raises ``ValueError`` whose message starts with
    ``<path>:<line>:``.
    """
    # Undecodable bytes become U+FFFD and are reported with their line.
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        text = fh.read()

    def error(lineno: int, message: str) -> ValueError:
        return ValueError(f"{fspath(path)}:{lineno}: {message}")

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
    size = header[4:]
    try:
        # ASCII digits only (the text is ASCII here): int() would also
        # take a sign, spaces and underscores.
        n = int(size) if size.isdigit() else 0
    except ValueError:  # past int()'s digit limit
        n = 0
    if n < 1:
        raise error(lineno, f"malformed size header: {header!r}")
    rows = lines[1:]
    if len(rows) != n:
        raise error(lines[-1][0], f"expected {n} rows, found {len(rows)}")
    entries = []
    largest, largest_line = 0.0, 0
    for lineno, row in rows:
        if "_" in row:
            # float() takes PEP 515 underscores ('1_0' reads as 10.0), and
            # write_matrix_csv never writes one.
            cell = next(cell for cell in row.split(",") if "_" in cell)
            raise error(lineno, f"underscore in cell {cell!r}")
        try:
            values = [float(cell) for cell in row.split(",")]
        except ValueError as exc:
            raise error(lineno, str(exc)) from None
        if len(values) != n:
            raise error(lineno, "row length does not match declared size")
        if not all(map(math.isfinite, values)):
            raise error(lineno, "cost matrix entries must all be finite")
        top = max(map(abs, values))
        if top > largest:
            largest, largest_line = top, lineno
        entries.append(values)
    # n * max|c| bounds every assignment sum, so a finite bound keeps all
    # sums finite.
    if math.isinf(n * largest):
        raise error(
            largest_line, f"n={n} times the entry of magnitude {largest!r} overflows a float"
        )
    return CostMatrix(entries)
