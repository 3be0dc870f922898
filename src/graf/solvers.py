"""Assignment solvers: exhaustive, exact O(n^3), and greedy.

``solve_max_exact`` delegates to scipy's dense shortest-augmenting-path
solver (Jonker-Volgenant style with dual potentials), which handles
real-valued costs exactly; the exhaustive solver doubles as its oracle for
small sizes.  :func:`_linear_sum_assignment` loads that solver from its
compiled module alone, without the rest of ``scipy.optimize``.  The greedy
construction walks the rows in order and takes the best still-unused
column, which lower-bounds the maximum.
``greedy_columns`` implements it on a whole batch of matrices at once;
``greedy_assignment`` runs it on a batch of one.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from graf._permutations import raw_sum_blocks
from graf.field import CostMatrix

#: Exhaustive search walks n! assignments; 10! keeps it in the seconds range.
BRUTE_FORCE_N_MAX = 10


@dataclass(frozen=True, eq=False)
class SolveResult:
    """An assignment with its raw cost sum and normalized field value.

    ``columns[i]`` is the 0-based column that row ``i`` takes.
    """

    columns: np.ndarray
    raw_sum: float
    field_value: float


#: scipy's compiled module that defines ``linear_sum_assignment``.
_LSAP_MODULE = "scipy.optimize._lsap"


def _lsap_path() -> str | None:
    """Where :data:`_LSAP_MODULE`'s extension file would be, or None when
    scipy is not installed.  Finding scipy imports none of it."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    return os.path.join(spec.submodule_search_locations[0], "optimize", "_lsap" + suffix)


def _load_lsap(path: str):
    """``linear_sum_assignment`` of the extension file at ``path``, loaded
    without its package and left out of ``sys.modules``, so that a later
    ``import scipy.optimize`` loads the package as usual.  Raises
    ImportError when the file is missing or does not load."""
    spec = importlib.util.spec_from_file_location(_LSAP_MODULE, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # A single-phase extension enters sys.modules as it is created.
    if sys.modules.get(_LSAP_MODULE) is module:
        del sys.modules[_LSAP_MODULE]
    return module.linear_sum_assignment


@functools.cache
def _linear_sum_assignment():
    """scipy's ``linear_sum_assignment``, a builtin of its compiled module.

    Importing ``scipy.optimize`` costs about 0.25 s for this one function,
    which loads alone in under 1 ms.  The package's own function is taken
    when the package is already loaded, or when the file does not load;
    either way it is the same builtin, so no result can differ.
    """
    path = _lsap_path()
    if path is not None and "scipy.optimize" not in sys.modules:
        try:
            return _load_lsap(path)
        except ImportError:
            pass
    from scipy.optimize import linear_sum_assignment

    return linear_sum_assignment


def _result(entries: np.ndarray, columns: np.ndarray) -> SolveResult:
    n = entries.shape[0]
    raw = float(entries[np.arange(n), columns].sum())
    return SolveResult(columns=columns, raw_sum=raw, field_value=raw / math.sqrt(n))


def solve_max_bruteforce(c: CostMatrix) -> SolveResult:
    """Maximize the raw cost sum by exhaustive enumeration.

    Ties resolve to the lexicographically smallest one-line notation.
    """
    if c.n > BRUTE_FORCE_N_MAX:
        raise ValueError(
            f"brute force is capped at n={BRUTE_FORCE_N_MAX}; use solve_max_exact"
        )
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
    _, columns = _linear_sum_assignment()(c.entries, maximize=True)
    return _result(c.entries, columns)


def solve_min_exact(c: CostMatrix) -> SolveResult:
    """Minimum-sum assignment; the maximizer of the negated matrix."""
    _, columns = _linear_sum_assignment()(c.entries)
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
