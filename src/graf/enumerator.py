"""Exhaustive small-size studies of the assignment field.

Everything here walks all ``n!`` assignments: full field enumeration,
near-maximal set counting and its dimension ``log|A| / log(n!)``, exact
agreement histograms, and cross-checks of the correlation-ball counts
against their closed forms.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from graf._permutations import BLOCK_ROWS, perm_table, raw_sum_blocks
from graf.combinatorics import (
    RencontresTable,
    ball_size,
    ball_size_upper_bound,
    in_correlation_ball,
)
from graf.field import CostMatrix, _assignment, sample_cost_entries
from graf.montecarlo import _estimate, _row_task_count, _task_pool, derive_seed

logger = logging.getLogger(__name__)

#: Full enumeration cap: 9! = 362,880 assignments.
ENUM_N_MAX = 9
#: Histogram / ball checks walk the group once per reference; 8! keeps the
#: whole acceptance grid in seconds.
HISTOGRAM_N_MAX = 8


def enumerate_field(c: CostMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Every assignment with its field value, in lexicographic order.

    Returns ``(perms, values)``: the read-only ``(n!, n)`` table of 0-based
    column indices from :func:`perm_table` and the ``n!`` field values.
    """
    if c.n > ENUM_N_MAX:
        raise ValueError(f"full enumeration is capped at n={ENUM_N_MAX}")
    sums = np.concatenate([sums for _, _, sums in raw_sum_blocks(c.entries)])
    return perm_table(c.n), sums / math.sqrt(c.n)


def enumerated_field_mean(c: CostMatrix) -> float:
    """Average field value over all assignments, by enumeration.

    Equals ``sum_ij c(i, j) / (n * sqrt(n))`` up to roundoff; this is the
    enumeration side of that identity.
    """
    if c.n > ENUM_N_MAX:
        raise ValueError(f"full enumeration is capped at n={ENUM_N_MAX}")
    total = math.fsum(float(sums.sum()) for _, _, sums in raw_sum_blocks(c.entries))
    return total / (math.factorial(c.n) * math.sqrt(c.n))


def _sizes_above(entries: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Count, per threshold, the assignments whose raw sum is strictly above it."""
    sizes = np.zeros(len(thresholds), dtype=np.int64)
    for _, _, sums in raw_sum_blocks(entries):
        sizes += (sums[np.newaxis, :] > thresholds[:, np.newaxis]).sum(axis=1)
    return sizes


def _count_matrices(task: tuple[int, int, np.ndarray, int, int]) -> np.ndarray:
    """Near-max set sizes of matrices ``start..stop-1`` of a dimension
    study, one row per matrix and one column per threshold."""
    n, master_seed, thresholds, start, stop = task
    seeds = [derive_seed(master_seed, n, 1, k) for k in range(start, stop)]
    return np.array([_sizes_above(c, thresholds) for c in sample_cost_entries(n, seeds)])


@dataclass(frozen=True)
class NearMaxReport:
    """Size and dimension of one instance's near-maximal assignment set.

    The set holds assignments with field value strictly above
    ``(1 - epsilon) * m_used``; ``dimension`` is ``log(size) / log(n!)``
    and is None when the set is empty.
    """

    n: int
    epsilon: float
    m_used: float
    set_size: int
    dimension: float | None
    empty_flag: bool


def near_maximal_set(c: CostMatrix, eps: float, m_used: float) -> NearMaxReport:
    """Count assignments whose field value exceeds ``(1 - eps) * m_used``."""
    if c.n > ENUM_N_MAX:
        raise ValueError(f"full enumeration is capped at n={ENUM_N_MAX}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {eps}")
    if not math.isfinite(m_used):
        raise ValueError("plug-in mean must be finite")
    threshold = (1.0 - eps) * m_used * math.sqrt(c.n)
    size = int(_sizes_above(c.entries, np.array([threshold]))[0])
    log_nfact = math.lgamma(c.n + 1)
    dimension = (math.log(size) / log_nfact) if size >= 1 and c.n >= 2 else None
    if size >= 1 and c.n == 1:
        dimension = 0.0
    return NearMaxReport(
        n=c.n,
        epsilon=eps,
        m_used=m_used,
        set_size=size,
        dimension=dimension,
        empty_flag=size == 0,
    )


@dataclass(frozen=True)
class DimensionSummary:
    """Aggregated near-maximal-set statistics for one size and epsilon.

    ``mean_log_size_nonempty`` averages ``log(size)`` over the non-empty
    instances; ``dimension`` divides the indicator-weighted mean
    ``E[log(size); non-empty]`` (empty instances contribute zero) by
    ``log(n!)``, with ``se_dimension`` its standard error.  ``m_shift_se``
    records how many standard errors the plug-in mean was shifted for
    sensitivity rows (0 for the base row).

    ``bound_small`` and ``bound_large`` evaluate the two shapes of the
    asymptotic bound on ``E log|A|`` with the caller's constants (the
    paper leaves them unspecified).  Since the sets nest, ``dimension`` is
    nondecreasing in epsilon on the same matrices; at fixed epsilon it is
    not promised to fall with ``n`` (at epsilon 0.1 it rises over n = 4..9).
    """

    n: int
    epsilon: float
    m_used: float
    m_std_error: float
    replications: int
    empty_fraction: float
    mean_log_size_nonempty: float
    se_log_size: float
    dimension: float
    se_dimension: float
    bound_small: float
    bound_large: float
    m_shift_se: float = 0.0


def nearmax_table(
    n_list: list[int],
    eps_list: list[float],
    replications: int,
    master_seed: int,
    m_reps: int = 100_000,
    c_small: float = 1.0,
    c_large: float = 1.0,
    sensitivity: bool = False,
    workers: int = 1,
) -> list[DimensionSummary]:
    """Estimate the expected near-maximal-set dimension per size and epsilon.

    For each ``n`` the plug-in mean is estimated once from a separate
    high-replication pass (``m_reps`` replications under seed path
    ``(n, 0)``), then ``replications`` matrices drawn under seed path
    ``(n, 1, k)`` are enumerated; every epsilon is counted on the same
    matrices.  With ``sensitivity`` enabled, extra rows re-count the sets
    with the plug-in mean shifted by +-2 standard errors.  One worker pool
    runs the m-pass and the counting of every size; the counts are
    integers, so the table does not depend on ``workers``.

    The paper's bound on the dimension is asymptotic with unspecified
    constants and goes to zero only as epsilon does; at a fixed epsilon
    the dimension is not promised to fall with ``n``.
    """
    if not n_list or not eps_list:
        raise ValueError("need at least one size and one epsilon")
    if any(n < 2 or n > ENUM_N_MAX for n in n_list):
        raise ValueError(f"dimension study sizes must lie in 2..{ENUM_N_MAX}")
    if any(not 0.0 < eps < 1.0 for eps in eps_list):
        raise ValueError("every epsilon must lie in (0, 1)")
    if replications < 2:
        raise ValueError("need at least 2 replications")
    if m_reps < 2:
        raise ValueError(f"m_reps must be at least 2, got {m_reps}")
    shifts = [0.0, -2.0, 2.0] if sensitivity else [0.0]
    # One counting task walks about BLOCK_ROWS assignments.
    per_task = {n: max(1, BLOCK_ROWS // math.factorial(n)) for n in n_list}
    most_tasks = max(
        max(_row_task_count(n, m_reps), -(-replications // per_task[n])) for n in n_list
    )
    rows: list[DimensionSummary] = []
    with _task_pool(workers, most_tasks) as run:
        for n in n_list:
            m_pass = _estimate(n, m_reps, derive_seed(master_seed, n, 0), run)
            m_hat = m_pass.max_value.mean
            m_se = m_pass.max_value.mean_std_error
            # One counting variant per (epsilon, mean shift) pair.
            variants = [(eps, shift) for eps in eps_list for shift in shifts]
            thresholds = np.array(
                [(1.0 - eps) * (m_hat + shift * m_se) * math.sqrt(n) for eps, shift in variants]
            )
            step = per_task[n]
            starts = range(0, replications, step)
            tasks = ((n, master_seed, thresholds, k, min(k + step, replications)) for k in starts)
            counts = run(_count_matrices, tasks)
            sizes = np.empty((len(variants), replications), dtype=np.int64)
            for k, block in zip(starts, counts):
                sizes[:, k : k + len(block)] = block.T
            # Empty sets contribute zero to the indicator-weighted log size.
            log_sizes = np.array(
                [[math.log(s) if s else 0.0 for s in row] for row in sizes.tolist()]
            )
            log_nfact = math.lgamma(n + 1)
            for v, (eps, shift) in enumerate(variants):
                indicator = log_sizes[v]
                ne = sizes[v] > 0
                ne_count = int(ne.sum())
                cond_mean = float(indicator[ne].mean()) if ne_count else math.nan
                cond_se = (
                    float(indicator[ne].std(ddof=1) / math.sqrt(ne_count))
                    if ne_count >= 2
                    else math.nan
                )
                rows.append(
                    DimensionSummary(
                        n=n,
                        epsilon=eps,
                        m_used=m_hat + shift * m_se,
                        m_std_error=m_se,
                        replications=replications,
                        empty_fraction=1.0 - ne_count / replications,
                        mean_log_size_nonempty=cond_mean,
                        se_log_size=cond_se,
                        dimension=float(indicator.mean()) / log_nfact,
                        se_dimension=float(indicator.std(ddof=1))
                        / math.sqrt(replications)
                        / log_nfact,
                        bound_small=c_small * (n * math.log(n)) ** 0.75,
                        bound_large=c_large * math.sqrt(eps) * n * math.log(n),
                        m_shift_se=shift,
                    )
                )
            logger.info("near-max table: n=%d done (%d variants)", n, len(variants))
    return rows


def correlation_histogram_exact(
    n: int, reference: np.ndarray | Sequence[int] | None = None
) -> RencontresTable:
    """Exact agreement histogram of the group against a reference.

    Counts, for every ``k``, the permutations sharing exactly ``k``
    positions with the reference, a 0-based column array (identity by
    default); the histogram does not depend on the reference.
    """
    if not 1 <= n <= HISTOGRAM_N_MAX:
        raise ValueError(f"exact histograms are capped at n={HISTOGRAM_N_MAX}")
    ref = np.arange(n) if reference is None else _assignment(reference, n)
    agreements = (perm_table(n) == ref[np.newaxis, :]).sum(axis=1)
    counts = np.bincount(agreements, minlength=n + 1)
    return RencontresTable(n, tuple(int(x) for x in counts))


@dataclass(frozen=True)
class BallSizeCheck:
    """Enumerated correlation-ball counts against the closed form."""

    n: int
    delta: float
    counts: tuple[int, ...]
    expected: int
    upper_bound: float
    passed: bool


def verify_ball_size(n: int, delta: float, seed: int = 0) -> BallSizeCheck:
    """Count permutations with correlation above ``1 - delta`` around three
    random references, and compare with the closed-form ball size.

    Passes when all three enumerated counts agree, equal the closed form,
    and respect the ``n**(delta*n)`` bound.
    """
    if not 1 <= n <= HISTOGRAM_N_MAX:
        raise ValueError(f"ball verification is capped at n={HISTOGRAM_N_MAX}")
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, n)))
    counts = []
    for _ in range(3):
        table = correlation_histogram_exact(n, rng.permutation(n))
        counts.append(
            sum(
                table.counts[k]
                for k in range(1, n + 1)
                if in_correlation_ball(k, n, delta)
            )
        )
    expected = ball_size(n, delta)
    upper = ball_size_upper_bound(n, delta)
    passed = all(count == expected for count in counts) and expected <= upper
    return BallSizeCheck(
        n=n,
        delta=delta,
        counts=tuple(counts),
        expected=expected,
        upper_bound=upper,
        passed=passed,
    )


def mean_correlation_exhaustive(n: int) -> Fraction:
    """Average correlation over all ordered permutation pairs, exactly.

    Exhaustive ``n!**2`` computation (chunked); the result is the rational
    ``1/n``.  Capped at ``n=7``.
    """
    if not 1 <= n <= 7:
        raise ValueError("exhaustive pair average is capped at n=7")
    table = perm_table(n).astype(np.int16)
    total_agreements = 0
    chunk = max(1, 2_000_000 // max(1, table.shape[0]))
    for start in range(0, table.shape[0], chunk):
        block = table[start : start + chunk]
        matches = block[:, np.newaxis, :] == table[np.newaxis, :, :]
        total_agreements += int(matches.sum())
    nfact = math.factorial(n)
    return Fraction(total_agreements, nfact * nfact * n)
