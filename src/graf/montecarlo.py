"""Replicated simulation of the field maximum with deterministic seeding.

Every replication draws one cost matrix, solves for the maximum, minimum
and greedy values, and records the field mean together with the residual
maximum (the maximum minus the field mean, whose two parts are
independent).  Statistics stream through mergeable central-moment
accumulators, and per-replication seeds come from a pinned SplitMix64
ladder, so results are bit-identical for a given master seed no matter how
replications are scheduled across workers.  One array kernel,
:func:`replicate_block`, samples and solves every replication of
:func:`estimate`, :func:`ratio_table` and :func:`symmetry_check`.  One
process pool per call computes rows a sampling pass at a time; the parent
pushes them into the accumulators in replication order.
"""

from __future__ import annotations

import logging
import math
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Iterator, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from graf.combinatorics import log_factorial
from graf.field import SEED_MAX, sample_chunk_size, sample_cost_entries
from graf.solvers import greedy_columns

logger = logging.getLogger(__name__)

_MASK64 = (1 << 64) - 1
#: SplitMix64 stream increment (the 64-bit golden ratio).
_GAMMA = 0x9E3779B97F4A7C15

#: Replications per scheduling block.  The block partition and the merge
#: order are fixed, which makes results independent of the worker count.
BLOCK_REPLICATIONS = 4096


def _splitmix64(z):
    """SplitMix64 finalizer of ``z`` in ``0..2**64-1``: an int, or each
    element of a ``uint64`` array, whose products wrap modulo 2**64."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(root: int, *path: int) -> int:
    """Derive a child seed from ``root`` along an index path.

    Each step applies the SplitMix64 finalizer to
    ``root + (index + 1) * 0x9E3779B97F4A7C15`` modulo 2**64.  Replication
    ``k`` of a study uses ``derive_seed(master, k)``; nested studies extend
    the path, so seed streams never collide.
    """
    if not 0 <= root <= SEED_MAX:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {root}")
    s = root
    for index in path:
        if index < 0:
            raise ValueError("seed path indices must be non-negative")
        s = _splitmix64((s + (index + 1) * _GAMMA) & _MASK64)
    return s


def _child_seeds(parent: int, start: int, stop: int) -> np.ndarray:
    """``derive_seed(parent, k)`` for ``k`` in ``start..stop-1``, as one
    ``uint64`` array."""
    if not 0 <= parent <= SEED_MAX:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {parent}")
    if start < 0:
        raise ValueError("seed path indices must be non-negative")
    k = np.arange(start, stop, dtype=np.uint64)
    return _splitmix64(k * np.uint64(_GAMMA) + np.uint64((parent + _GAMMA) & _MASK64))


@dataclass
class RunningStats:
    """Streaming central moments: count, mean, and 2nd-4th moment sums.

    ``m2``..``m4`` are sums of powers of deviations from the running mean;
    merging two accumulators reproduces the single-stream result up to
    roundoff.
    """

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0
    m3: float = 0.0
    m4: float = 0.0

    def push(self, x: float) -> None:
        n1 = self.count
        self.count = n = n1 + 1
        delta = x - self.mean
        delta_n = delta / n
        delta_n2 = delta_n * delta_n
        term1 = delta * delta_n * n1
        self.mean += delta_n
        self.m4 += (
            term1 * delta_n2 * (n * n - 3 * n + 3)
            + 6.0 * delta_n2 * self.m2
            - 4.0 * delta_n * self.m3
        )
        self.m3 += term1 * delta_n * (n - 2) - 3.0 * delta_n * self.m2
        self.m2 += term1

    @property
    def variance(self) -> float:
        """Unbiased sample variance; requires at least two observations."""
        if self.count < 2:
            raise ValueError("variance needs at least 2 observations")
        return self.m2 / (self.count - 1)

    @property
    def mean_std_error(self) -> float:
        return math.sqrt(self.variance / self.count)

    @property
    def variance_std_error(self) -> float:
        """Standard error of the sample variance via the fourth moment."""
        n = self.count
        if n < 2:
            raise ValueError("variance standard error needs at least 2 observations")
        m4c = self.m4 / n
        s2 = self.variance
        var_of_var = (m4c - s2 * s2 * (n - 3) / (n - 1)) / n
        return math.sqrt(max(var_of_var, 0.0))

    def summary(self) -> "StatSummary":
        return StatSummary(
            mean=self.mean,
            variance=self.variance,
            mean_std_error=self.mean_std_error,
            variance_std_error=self.variance_std_error,
        )


def merge_stats(a: RunningStats, b: RunningStats) -> RunningStats:
    """Combine two accumulators as if their streams were concatenated."""
    if a.count == 0:
        return RunningStats(b.count, b.mean, b.m2, b.m3, b.m4)
    if b.count == 0:
        return RunningStats(a.count, a.mean, a.m2, a.m3, a.m4)
    na, nb = a.count, b.count
    n = na + nb
    delta = b.mean - a.mean
    d2 = delta * delta
    mean = a.mean + delta * nb / n
    m2 = a.m2 + b.m2 + d2 * na * nb / n
    m3 = (
        a.m3
        + b.m3
        + d2 * delta * na * nb * (na - nb) / (n * n)
        + 3.0 * delta * (na * b.m2 - nb * a.m2) / n
    )
    m4 = (
        a.m4
        + b.m4
        + d2 * d2 * na * nb * (na * na - na * nb + nb * nb) / (n**3)
        + 6.0 * d2 * (na * na * b.m2 + nb * nb * a.m2) / (n * n)
        + 4.0 * delta * (na * b.m3 - nb * a.m3) / n
    )
    return RunningStats(n, mean, m2, m3, m4)


@dataclass
class RunningCovariance:
    """Streaming covariance accumulator for a pair of statistics."""

    count: int = 0
    mean_x: float = 0.0
    mean_y: float = 0.0
    comoment: float = 0.0

    def push(self, x: float, y: float) -> None:
        self.count += 1
        dx = x - self.mean_x
        self.mean_x += dx / self.count
        self.mean_y += (y - self.mean_y) / self.count
        # dx uses the pre-update mean, the y factor the post-update mean.
        self.comoment += dx * (y - self.mean_y)

    @property
    def covariance(self) -> float:
        if self.count < 2:
            raise ValueError("covariance needs at least 2 observations")
        return self.comoment / (self.count - 1)

    def merge(self, other: "RunningCovariance") -> "RunningCovariance":
        if self.count == 0:
            return RunningCovariance(
                other.count, other.mean_x, other.mean_y, other.comoment
            )
        if other.count == 0:
            return RunningCovariance(self.count, self.mean_x, self.mean_y, self.comoment)
        na, nb = self.count, other.count
        n = na + nb
        dx = other.mean_x - self.mean_x
        dy = other.mean_y - self.mean_y
        return RunningCovariance(
            count=n,
            mean_x=self.mean_x + dx * nb / n,
            mean_y=self.mean_y + dy * nb / n,
            comoment=self.comoment + other.comoment + dx * dy * na * nb / n,
        )


@dataclass(frozen=True)
class StatSummary:
    """Mean and variance of one statistic with their standard errors."""

    mean: float
    variance: float
    mean_std_error: float
    variance_std_error: float


@dataclass(frozen=True)
class EstimateReport:
    """Replicated estimates for one size.

    ``ratio`` is the estimated mean maximum divided by ``sqrt(2 log(n!))``;
    ``greedy_violations`` counts replications where the greedy value
    exceeded the solved maximum (always 0 unless the solver is broken).
    """

    n: int
    replications: int
    master_seed: int
    max_value: StatSummary
    min_value: StatSummary
    greedy_value: StatSummary
    field_mean: StatSummary
    residual_max: StatSummary
    ratio: float
    ratio_std_error: float
    cov_field_mean_residual: float
    greedy_violations: int


#: Columns of a :func:`replicate_block` row, in order.
STAT_KEYS = ("max_value", "min_value", "greedy_value", "field_mean", "residual_max")


def replicate_block(n: int, seeds: Sequence[int] | np.ndarray) -> np.ndarray:
    """Sample and solve one cost matrix per seed (integers, or a ``uint64``
    array).

    Returns a ``(len(seeds), 5)`` array whose columns follow
    :data:`STAT_KEYS`: the maximum, minimum and greedy field values, the
    field mean (the average over all assignments, which collapses to
    ``sum_ij c(i, j) / (n * sqrt(n))``) and the residual maximum (the
    maximum minus the field mean).  Matrices are drawn and solved a
    sampling pass at a time, so memory does not grow with the batch.
    """
    rows = np.empty((len(seeds), len(STAT_KEYS)))
    root_n = math.sqrt(n)
    step = sample_chunk_size(n)
    for start in range(0, len(seeds), step):
        entries = sample_cost_entries(n, seeds[start : start + step])
        out = rows[start : start + len(entries)]
        solved = (
            [linear_sum_assignment(c, maximize=True)[1] for c in entries],
            [linear_sum_assignment(c)[1] for c in entries],
            greedy_columns(entries),
        )
        matrix, row = np.arange(len(entries))[:, None], np.arange(n)
        for col, columns in enumerate(solved):
            out[:, col] = entries[matrix, row, columns].sum(axis=1) / root_n
        out[:, 3] = entries.reshape(len(entries), n * n).sum(axis=1) / (n * root_n)
        out[:, 4] = out[:, 0] - out[:, 3]
    return rows


def _replicate_rows(task: tuple[int, int, int, int]) -> np.ndarray:
    """Rows of :func:`replicate_block` for replications ``start..stop-1``."""
    n, master_seed, start, stop = task
    return replicate_block(n, _child_seeds(master_seed, start, stop))


def _row_tasks(n: int, master_seed: int, replications: int):
    """Row tasks ``(n, master_seed, start, stop)`` in replication order: one
    sampling pass of :func:`replicate_block`, never crossing a block."""
    step = sample_chunk_size(n)
    for block in range(0, replications, BLOCK_REPLICATIONS):
        stop = min(block + BLOCK_REPLICATIONS, replications)
        for start in range(block, stop, step):
            yield n, master_seed, start, min(start + step, stop)


def _row_task_count(n: int, replications: int) -> int:
    """Number of tasks :func:`_row_tasks` yields."""
    return sum(1 for _ in _row_tasks(n, 0, replications))


def _push_rows(stats: list[RunningStats], cov: RunningCovariance, rows: np.ndarray) -> None:
    """Push :func:`replicate_block` rows, in order, into one accumulator per
    statistic and the field-mean/residual covariance."""
    for row in rows.tolist():
        for accum, value in zip(stats, row):
            accum.push(value)
        cov.push(row[3], row[4])


#: Tasks a pool worker may have submitted and not yet consumed: enough to
#: keep it busy while the parent consumes results in order, and a bound
#: that does not grow with the run.
TASKS_PER_WORKER = 4


def _windowed_map(pool: ProcessPoolExecutor, window: int, fn, tasks) -> Iterator:
    """``fn`` over ``tasks`` on ``pool``, in task order, with at most
    ``window`` tasks submitted and not yet consumed."""
    pending: deque = deque()
    for task in tasks:
        if len(pending) == window:
            yield from pending.popleft()
        # Executor.map submits its items at the call, so this submits one task.
        pending.append(pool.map(fn, (task,)))
    while pending:
        yield from pending.popleft()


@contextmanager
def _task_pool(workers: int, tasks: int):
    """Yield ``run(fn, tasks)``, which maps ``fn`` over ``tasks`` and yields
    the results in task order.

    ``run`` is backed by a process pool of ``min(workers, cores, tasks)``
    processes, or runs in this process when that is 1.  One pool serves
    every ``run`` call inside the ``with`` block.
    """
    if workers < 1:
        raise ValueError("worker count must be at least 1")
    # More processes than tasks or cores cannot help, and the pool starts
    # all of them at the first submit.
    workers = min(workers, os.cpu_count() or 1, tasks)
    if workers <= 1:
        yield map
        return
    logger.info("task pool: %d workers", workers)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield partial(_windowed_map, pool, TASKS_PER_WORKER * workers)


def _estimate(n: int, replications: int, master_seed: int, run) -> EstimateReport:
    """:func:`estimate`, with row tasks mapped by ``run`` (see :func:`_task_pool`)."""
    logger.info("estimate: n=%d replications=%d", n, replications)
    results = run(_replicate_rows, _row_tasks(n, master_seed, replications))
    stats, cov = [RunningStats() for _ in STAT_KEYS], RunningCovariance()
    greedy_violations = 0
    for block in range(0, replications, BLOCK_REPLICATIONS):
        block_stats = [RunningStats() for _ in STAT_KEYS]
        block_cov = RunningCovariance()
        while block_cov.count < min(BLOCK_REPLICATIONS, replications - block):
            rows = next(results)
            _push_rows(block_stats, block_cov, rows)
            greedy_violations += int((rows[:, 2] > rows[:, 0]).sum())
        # Merging into an empty accumulator copies, so block 0 passes unchanged.
        stats = [merge_stats(a, b) for a, b in zip(stats, block_stats)]
        cov = cov.merge(block_cov)
    summaries = dict(zip(STAT_KEYS, (accum.summary() for accum in stats)))
    scale = math.sqrt(2.0 * log_factorial(n))
    max_summary = summaries["max_value"]
    ratio = max_summary.mean / scale if scale > 0.0 else math.nan
    ratio_se = max_summary.mean_std_error / scale if scale > 0.0 else math.nan
    return EstimateReport(
        n=n,
        replications=replications,
        master_seed=master_seed,
        **summaries,
        ratio=ratio,
        ratio_std_error=ratio_se,
        cov_field_mean_residual=cov.covariance,
        greedy_violations=greedy_violations,
    )


def estimate(
    n: int, replications: int, master_seed: int, workers: int = 1
) -> EstimateReport:
    """Replicated moment estimates for the extremes at size ``n``.

    Replication ``k`` uses ``derive_seed(master_seed, k)``.  Workers
    compute rows a sampling pass at a time; the parent pushes them in
    replication order into fixed blocks of :data:`BLOCK_REPLICATIONS`
    merged in block order, so the report does not depend on ``workers``.
    """
    if replications < 2:
        raise ValueError("need at least 2 replications")
    with _task_pool(workers, _row_task_count(n, replications)) as run:
        return _estimate(n, replications, master_seed, run)


def ratio_table(
    n_list: list[int], replications: int, master_seed: int, workers: int = 1
) -> list[EstimateReport]:
    """One :func:`estimate` per size, for the convergence study of the
    ratio mean-maximum / ``sqrt(2 log(n!))``.

    The estimate for size ``n`` runs under ``derive_seed(master_seed, n)``,
    so rows are independent of each other and of the list order.  One
    worker pool serves every size.
    """
    if any(n < 2 for n in n_list):
        raise ValueError("ratio table sizes must be at least 2")
    if replications < 2:
        raise ValueError("need at least 2 replications")
    tasks = max((_row_task_count(n, replications) for n in n_list), default=1)
    with _task_pool(workers, tasks) as run:
        return [
            _estimate(n, replications, derive_seed(master_seed, n), run) for n in n_list
        ]


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic ``sup |F_a - F_b|``."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def ks_critical_value(n_a: int, n_b: int, alpha: float) -> float:
    """Smirnov asymptotic critical value ``c(alpha) * sqrt((n_a+n_b)/(n_a*n_b))``
    with ``c(alpha) = sqrt(-ln(alpha/2)/2)``."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) * math.sqrt((n_a + n_b) / (n_a * n_b))


@dataclass(frozen=True)
class SymmetryReport:
    """KS comparison of the negated minimum sample against the maximum sample."""

    n: int
    replications: int
    statistic: float
    critical_value: float
    alpha: float
    passed: bool


def symmetry_check(
    n: int, replications: int, master_seed: int, alpha: float = 0.01
) -> SymmetryReport:
    """Test that the negated minimum matches the maximum in distribution.

    Draws two disjoint replication streams (paths ``(0, k)`` and ``(1, k)``
    under the master seed), compares ``{-min}`` against ``{max}`` with the
    two-sample KS statistic, and checks it against the asymptotic critical
    value at level ``alpha``.
    """
    if replications < 100:
        raise ValueError("symmetry check needs at least 100 replications")
    streams = [_child_seeds(derive_seed(master_seed, i), 0, replications) for i in (0, 1)]
    maxima = replicate_block(n, streams[0])[:, 0]
    minima = replicate_block(n, streams[1])[:, 1]
    statistic = ks_statistic(-minima, maxima)
    critical = ks_critical_value(replications, replications, alpha)
    return SymmetryReport(
        n=n,
        replications=replications,
        statistic=statistic,
        critical_value=critical,
        alpha=alpha,
        passed=statistic < critical,
    )
