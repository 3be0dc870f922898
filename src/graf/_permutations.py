"""Shared dense enumeration of the symmetric group for small sizes.

Both the brute-force solver and the exhaustive studies walk all ``n!``
permutations in lexicographic order; the table and the blocked evaluation
live here so the walk order is identical everywhere.

The lexicographic table is a prefix tree.  The permutations that share
their first ``h = min(n, 4)`` columns are contiguous, and below such a
prefix the later matrix rows take the remaining columns in lexicographic
order.  :func:`raw_sum_blocks` therefore adds up the first ``h`` terms once
per prefix and forms each later term once per remaining column set and
order, instead of gathering all ``n`` entries of every permutation.  It
adds the terms in the order numpy's ``sum(axis=1)`` of the gathered rows
does, so its sums equal that gather's bit for bit.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator

import numpy as np

#: Hard cap for materializing the table: 10! rows of int8 is ~36 MB.
PERM_TABLE_N_MAX = 10

#: Rows per yielded block; the callers' per-block partials depend on it.
#: A block's sums and scratch (1.05 MB at n = 9) fit in a 2 MB L2 cache.
BLOCK_ROWS = 1 << 16

#: Rows of the smaller table shifted at a time while :func:`perm_table`
#: grows it.
PERM_CHUNK_ROWS = 1 << 14

#: Rows summed once per prefix of the table; the other rows' terms are
#: formed once per remaining column set and order.  numpy's pairwise row
#: sum splits here from 8 terms on (see :func:`raw_sum_blocks`).
HEAD_ROWS = 4


@lru_cache(maxsize=3)
def perm_table(n: int) -> np.ndarray:
    """All permutations of ``0..n-1`` as an ``(n!, n)`` int8 array in
    lexicographic row order.  Read-only and cached."""
    if not 1 <= n <= PERM_TABLE_N_MAX:
        raise ValueError(f"permutation table supports 1 <= n <= {PERM_TABLE_N_MAX}")
    table = np.zeros((1, 0), dtype=np.int8)
    for size in range(1, n + 1):
        # Rows starting with f are the lexicographic permutations of the
        # other values: the smaller table with every entry >= f shifted up.
        rows = len(table)
        grown = np.empty((size * rows, size), dtype=np.int8)
        for first in range(size):
            block = grown[first * rows : (first + 1) * rows]
            block[:, 0] = first
            # In row chunks, so no temporary is table-sized; contiguous
            # chunks are also faster than ufuncs writing the strided block.
            for lo in range(0, rows, PERM_CHUNK_ROWS):
                part = table[lo : lo + PERM_CHUNK_ROWS]
                block[lo : lo + PERM_CHUNK_ROWS, 1:] = part + (part >= first)
        table = grown
    table.flags.writeable = False
    return table


@lru_cache(maxsize=2)
def _split_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index tables that split each permutation of :func:`perm_table` into
    a head and a tail, as ``(heads, tails, sets)``.

    With ``h = min(n, HEAD_ROWS)``, the table comes in blocks of
    ``s = (n-h)!`` permutations that share their first ``h`` columns, the
    head; within a block the tail rows ``h..n-1`` take the remaining
    columns in lexicographic order.  ``heads`` is the ``(n!/s, h)`` int8
    array of the blocks' heads, ``sets[b]`` numbers block ``b``'s set of
    remaining columns, and ``tails[j, c]`` is the ``(s,)`` int8 array of
    the columns that matrix row ``h + j`` takes along the orders of set
    ``c``.
    """
    h = min(n, HEAD_ROWS)
    table = perm_table(n)
    blocks = table[:: math.factorial(n - h)]
    # A block's first permutation lists its remaining columns in ascending
    # order; the first block orders h..n-1 as every block orders its own.
    # A set is numbered by its bitmask, which a 1-D unique sorts cheaply.
    masks = (1 << blocks[:, h:].astype(np.int64)).sum(axis=1)
    _, first, sets = np.unique(masks, return_index=True, return_inverse=True)
    remaining = blocks[first, h:]
    orders = table[: len(table) // len(blocks), h:] - h
    tables = (
        np.ascontiguousarray(blocks[:, :h]),
        np.ascontiguousarray(remaining[:, orders].transpose(2, 0, 1)),
        sets.reshape(-1),
    )
    for array in tables:
        array.flags.writeable = False
    return tables


def raw_sum_blocks(entries: np.ndarray) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield ``(offset, rows, sums)`` blocks of ``BLOCK_ROWS`` permutations.

    ``rows`` is a slice of the table, ``sums[j]`` the un-normalized cost
    ``sum_i entries[i, rows[j, i]]``, bit for bit what
    ``entries[np.arange(n), rows].sum(axis=1)`` gives.

    Each walk forms its tail terms and builds every block in one buffer
    of its own, so a yielded ``sums`` holds only until the next step; a
    caller that keeps sums copies them.

    numpy sums a row of fewer than 8 terms one after another; from 8 to 15
    terms it adds the first 8 as ``((0+1)+(2+3))+((4+5)+(6+7))`` and the
    rest one after another.  Either way it adds a sum of the head terms
    (see :func:`_split_tables`) to a sum of tail terms, then the other
    tail terms in turn.  So each head sum is formed once per head, each
    tail term once per remaining column set and order, and a block only
    adds them up, in that order.  For ``n >= 8`` the first four tail
    terms are combined once, in place, as ``(t0 + t1) + (t2 + t3)``.
    """
    n = entries.shape[0]
    table = perm_table(n)
    heads, tails, sets = _split_tables(n)
    h = heads.shape[1]
    terms = entries[np.arange(h), heads]
    # numpy's row sum starts from +0.0, so a row of -0.0 sums to +0.0;
    # adding +0.0 to the first term reproduces that sign and no other bit.
    terms[:, 0] += 0.0
    if n >= 8:
        head = (terms[:, 0] + terms[:, 1]) + (terms[:, 2] + terms[:, 3])
    else:
        head = terms[:, 0]
        for k in range(1, h):
            head = head + terms[:, k]
    span = len(table) // len(heads)
    rest: list[np.ndarray] = []
    if n > h:
        # The tail terms, then one block's sums and one tail temporary, in
        # one allocation; a block of BLOCK_ROWS rows overlaps at most
        # `width` heads.  mode="clip" writes into out directly; "raise"
        # stages a copy.
        width = min(len(heads), -(-BLOCK_ROWS // span) + 1)
        buffer = np.empty(((n - h) * tails.shape[1] + 2 * width, span))
        rest = list(buffer[: -2 * width].reshape(tails.shape[:2] + (span,)))
        blocks = buffer[-2 * width :].reshape(2, width, span)
        for tail, columns, row in zip(rest, tails, entries[h:]):
            np.take(row, columns, out=tail, mode="clip")
        if n >= 8:
            rest[0] += rest[1]
            rest[2] += rest[3]
            rest[0] += rest[2]
            del rest[1:4]
    for start in range(0, len(table), BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, len(table))
        # The heads whose permutations overlap the block.
        lo, hi = start // span, -(-stop // span)
        if rest:
            ids = sets[lo:hi]
            sums, scratch = blocks[:, : hi - lo]
            np.take(rest[0], ids, axis=0, out=sums, mode="clip")
            sums += head[lo:hi, np.newaxis]
            for tail in rest[1:]:
                sums += np.take(tail, ids, axis=0, out=scratch, mode="clip")
        else:
            sums = head[lo:hi, np.newaxis]
        yield start, table[start:stop], sums.ravel()[start - lo * span : stop - lo * span]
