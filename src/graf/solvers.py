"""Assignment solvers: exhaustive, exact O(n^3), and greedy.

``solve_max_exact`` delegates to scipy's dense shortest-augmenting-path
solver (Jonker-Volgenant style with dual potentials, loaded by
:mod:`graf._scipy`), which handles real-valued costs exactly; the
exhaustive solver is its oracle for small sizes.  The greedy construction
walks the rows in order and takes the best still-unused column, which
lower-bounds the maximum.  ``greedy_columns`` implements it on a whole
batch of matrices at once; ``greedy_assignment`` runs it on a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from graf import _scipy
from graf._permutations import PERM_TABLE_N_MAX, raw_sum_blocks
from graf.field import CostMatrix


@dataclass(frozen=True, eq=False)
class SolveResult:
    """An assignment with its raw cost sum and normalized field value.

    ``columns[i]`` is the 0-based column that row ``i`` takes.
    """

    columns: np.ndarray
    raw_sum: float
    field_value: float


def _result(entries: np.ndarray, columns: np.ndarray) -> SolveResult:
    n = entries.shape[0]
    raw = float(entries[np.arange(n), columns].sum())
    return SolveResult(columns=columns, raw_sum=raw, field_value=raw / math.sqrt(n))


def solve_max_bruteforce(c: CostMatrix) -> SolveResult:
    """Maximize the raw cost sum by exhaustive enumeration.

    Ties resolve to the lexicographically smallest one-line notation.  The
    walk is the permutation table's, so it is capped where the table is.
    """
    if c.n > PERM_TABLE_N_MAX:
        raise ValueError(f"brute force is capped at n={PERM_TABLE_N_MAX}; use solve_max_exact")
    best = -math.inf
    best_row: np.ndarray | None = None
    for _, rows, sums in raw_sum_blocks(c.entries):
        j = int(np.argmax(sums))
        # Strict improvement keeps the first (lexicographically smallest) argmax.
        if sums[j] > best:
            best = float(sums[j])
            best_row = rows[j]
    assert best_row is not None
    return SolveResult(
        columns=best_row.astype(np.intp), raw_sum=best, field_value=best / math.sqrt(c.n)
    )


def solve_max_exact(c: CostMatrix) -> SolveResult:
    """Maximum-sum assignment via the O(n^3) dense solver.

    The optimal value matches exhaustive search exactly; which optimal
    assignment is returned under ties is implementation-defined.
    """
    _, columns = _scipy.linear_sum_assignment()(c.entries, maximize=True)
    return _result(c.entries, columns)


def solve_min_exact(c: CostMatrix) -> SolveResult:
    """Minimum-sum assignment; the maximizer of the negated matrix."""
    _, columns = _scipy.linear_sum_assignment()(c.entries)
    return _result(c.entries, columns)


def greedy_assignment(c: CostMatrix) -> SolveResult:
    """Row-by-row greedy: row ``i`` takes its best still-unused column.

    Ties resolve to the smallest available column index.
    """
    return _result(c.entries, greedy_columns(c.entries[np.newaxis])[0])


def greedy_columns(entries: np.ndarray) -> np.ndarray:
    """Greedy columns of each matrix in a ``(B, n, n)`` batch, as a
    ``(B, n)`` array: row ``i`` of each matrix takes its best still-unused
    column, the smallest such column under ties.  Each row step is one
    argmax over a working copy of the batch, in which the columns already
    taken read -inf in the rows still to come."""
    work = entries.astype(float)
    columns = np.empty(entries.shape[:2], dtype=np.intp)
    batch = np.arange(len(entries))
    for i in range(entries.shape[1]):
        # argmax takes the first maximum; -inf lies below any cost.
        columns[:, i] = work[:, i].argmax(axis=1)
        work[batch, i + 1 :, columns[:, i]] = -np.inf
    return columns
