"""Assignment solvers: exhaustive, exact O(n^3), and greedy.

``solve_max_exact`` delegates to scipy's dense shortest-augmenting-path
solver (Jonker-Volgenant style with dual potentials), which handles
real-valued costs exactly; the exhaustive solver doubles as its oracle for
small sizes.  :func:`_scipy_compiled` loads that solver, the sampler's
``ndtri`` and the two routines of :mod:`graf.bounds` from their compiled
modules alone, without their scipy packages.  The greedy construction
walks the rows in order and takes the best still-unused column, which
lower-bounds the maximum.  ``greedy_columns`` implements it on a whole
batch of matrices at once; ``greedy_assignment`` runs it on a batch of one.
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


def _extension_path(module: str) -> str:
    """Where the extension file of ``scipy.<module>`` would be.  Finding
    scipy imports none of it; raises ModuleNotFoundError when scipy is not
    installed."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    return os.path.join(spec.submodule_search_locations[0], *module.split(".")) + suffix


def _load_extension(name: str, path: str):
    """The extension module ``name`` of the file at ``path``, loaded
    without its package.  It stays in ``sys.modules``, so that a later
    import of the package reuses it.  Raises ImportError when the file is
    missing or does not load; a load that fails takes ``name`` out of
    ``sys.modules`` again, so that no later import returns the half-built
    module."""
    spec = importlib.util.spec_from_file_location(name, path)
    try:
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    except BaseException:
        sys.modules.pop(name, None)
        raise
    return module


#: The compiled modules that ``scipy.special._ufuncs`` imports as it
#: loads.  Loaded first, they spare it the import of ``scipy.special``.
_LOADED_FIRST = {
    "special._ufuncs": (
        "special._ufuncs_cxx", "special._ellip_harm_2", "special._special_ufuncs",
        "special._gufuncs",
    ),
}


@functools.cache
def _scipy_compiled(module: str, attr: str):
    """``attr`` of scipy's compiled module ``scipy.<module>``, from its
    file alone after those of :data:`_LOADED_FIRST` (1-30 ms, where the
    package takes 0.05-0.35 s), or from the package when that is loaded
    or a file does not load: the same object either way, so no result can
    differ.  A module already in ``sys.modules`` is taken as it is, and a
    load that fails part way takes out every module it put there."""
    name = "scipy." + module
    if name.rpartition(".")[0] not in sys.modules:
        added = []
        try:
            for part in (*_LOADED_FIRST.get(module, ()), module):
                if "scipy." + part not in sys.modules:
                    _load_extension("scipy." + part, _extension_path(part))
                    added.append("scipy." + part)
            return getattr(sys.modules[name], attr)
        except ImportError:
            for key in added:
                sys.modules.pop(key, None)
    return getattr(importlib.import_module(name), attr)


def _linear_sum_assignment():
    """scipy's ``linear_sum_assignment``, a builtin of its compiled module."""
    return _scipy_compiled("optimize._lsap", "linear_sum_assignment")


def _ndtri():
    """scipy's ``ndtri``, Cephes' inverse normal CDF, a ufunc of its
    compiled module."""
    return _scipy_compiled("special._ufuncs", "ndtri")


def _quad(qagpe, func, a: float, b: float, *, epsabs, epsrel, limit, points):
    """``(value, abserr)`` of ``scipy.integrate.quad`` over finite
    ``a < b`` with break ``points``: the same call to QUADPACK's
    ``qagpe``, given as the first argument.  A nonzero ``ier`` raises
    ArithmeticError, where ``quad`` warns."""
    inner = np.unique(points)
    inner = inner[(a < inner) & (inner < b)]
    value, abserr, ier = qagpe(
        func, a, b, np.concatenate((inner, (0.0, 0.0))), (), 0, epsabs, epsrel, limit
    )
    if ier:
        raise ArithmeticError(f"QUADPACK qagpe stopped with ier={ier}")
    return value, abserr


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
