"""Shared dense enumeration of the symmetric group for small sizes.

Both the brute-force solver and the exhaustive studies walk all ``n!``
permutations in lexicographic order; the table and the blocked evaluation
live here so the walk order is identical everywhere.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

import numpy as np

#: Hard cap for materializing the table: 10! rows of int8 is ~36 MB.
PERM_TABLE_N_MAX = 10

#: Rows evaluated per block; keeps the gather buffer around 16 MB at n=10.
BLOCK_ROWS = 200_000


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
            block[:, 1:] = table + (table >= first)
        table = grown
    table.flags.writeable = False
    return table


def raw_sum_blocks(entries: np.ndarray) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield ``(offset, rows, sums)`` blocks of ``BLOCK_ROWS`` permutations.

    ``rows`` is a slice of the table, ``sums[j]`` the un-normalized cost
    ``sum_i entries[i, rows[j, i]]``.
    """
    n = entries.shape[0]
    table = perm_table(n)
    positions = np.arange(n)
    for start in range(0, table.shape[0], BLOCK_ROWS):
        rows = table[start : start + BLOCK_ROWS]
        sums = entries[positions, rows].sum(axis=1)
        yield start, rows, sums
