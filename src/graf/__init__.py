"""Gaussian random assignment field: simulation, exact enumeration, bounds.

The field assigns to every assignment ``u`` (a permutation of the columns,
held as a 0-based column array) the normalized cost
``n**-0.5 * sum_i c(i, u[i])``, where the ``c(i, j)`` are independent
standard Gaussian costs.  This package
computes the maximum and minimum of the field exactly, runs reproducible
Monte Carlo studies of their moments, enumerates near-maximal assignment
sets for small ``n``, and evaluates the matching closed-form bounds.
"""

import os as _os

# OpenBLAS reads this when numpy (and later scipy's compiled files) load
# it.  graf calls no BLAS routine, and an idle pool thread otherwise spins
# for about 0.1 s of CPU before it sleeps; at 4 it sleeps at once.  BLAS
# stays multi-threaded, and a value the caller set wins.
_os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from types import ModuleType as _ModuleType

from graf.combinatorics import (
    ball_size,
    ball_size_upper_bound,
    derangement_count,
    log_factorial,
    rencontres_count,
)
from graf.enumerator import (
    DimensionSummary,
    ball_counts_exact,
    correlation_histogram_exact,
    enumerate_field,
    enumerated_field_mean,
    mean_correlation_exhaustive,
    nearmax_table,
)
from graf.field import (
    CostMatrix,
    correlation,
    field_value,
    read_matrix_csv,
    sample_cost_entries,
    sample_cost_matrix,
    write_matrix_csv,
)
from graf.montecarlo import (
    EstimateReport,
    StatSummary,
    derive_seed,
    estimate,
    ratio_table,
    replicate_block,
)
from graf.solvers import (
    SolveResult,
    greedy_assignment,
    solve_max_bruteforce,
    solve_max_exact,
    solve_min_exact,
)

__version__ = "0.1.0"

# The public API is exactly the names imported above.  The bound functions
# stay in graf.bounds, which loads two of scipy's compiled routines, so
# `import graf` loads no scipy.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
