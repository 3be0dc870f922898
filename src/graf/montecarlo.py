"""Replicated simulation of the field maximum with deterministic seeding.

Every replication draws one cost matrix, solves for the maximum, minimum
and greedy values, and records the field mean together with the residual
maximum (the maximum minus the field mean, whose two parts are
independent).  One array kernel, :func:`replicate_block`, samples and
solves, with :mod:`graf.solvers`' batch calls, every replication of
:func:`estimate`, :func:`ratio_table` and the near-max mean pass, which
solves and accumulates the maximum only.  Per-replication seeds come
from a pinned SplitMix64 ladder, and one mergeable central-moment
accumulator takes the rows in replication order, so results are
bit-identical for a given master seed however many workers the call's
process pool has.
"""

from __future__ import annotations

import logging
import math
import os
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from graf.combinatorics import log_factorial
from graf.field import SEED_MAX, sample_chunk_size, sample_cost_entries
from graf.solvers import _lsa_columns, greedy_columns

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

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

def replicate_block(
    n: int, seeds: Sequence[int] | np.ndarray, columns: int = len(STAT_KEYS)
) -> np.ndarray:
    """Sample and solve one cost matrix per seed (integers, or a ``uint64``
    array).

    Returns a ``(len(seeds), columns)`` array whose columns are the first
    ``columns`` of :data:`STAT_KEYS`: the maximum, minimum and greedy field
    values, the field mean (the average over all assignments, which
    collapses to ``sum_ij c(i, j) / (n * sqrt(n))``) and the residual
    maximum (the maximum minus the field mean).  Only the solves those
    columns need run, and each column has the bits it has in a full row.
    The solves are :mod:`graf.solvers`' batch calls, whose LSA takes
    reduced costs from ``n = REDUCED_COST_N_MIN`` on (see
    :func:`~graf.solvers._lsa_columns`); the values are summed from the
    sampled entries either way.  Matrices are drawn and solved a sampling
    pass at a time, so memory does not grow with the batch.
    """
    if not 1 <= columns <= len(STAT_KEYS):
        raise ValueError(f"columns must lie in 1..{len(STAT_KEYS)}, got {columns}")
    rows = np.empty((len(seeds), columns))
    root_n = math.sqrt(n)
    step = sample_chunk_size(n)
    for start in range(0, len(seeds), step):
        entries = sample_cost_entries(n, seeds[start : start + step])
        out = rows[start : start + len(entries)]
        matrix, row = np.arange(len(entries))[:, None], np.arange(n)
        for col in range(min(columns, 3)):
            solved = greedy_columns(entries) if col == 2 else _lsa_columns(entries, col == 0)
            out[:, col] = entries[matrix, row, solved].sum(axis=1) / root_n
        if columns > 3:
            out[:, 3] = entries.reshape(len(entries), n * n).sum(axis=1) / (n * root_n)
        if columns > 4:
            out[:, 4] = out[:, 0] - out[:, 3]
    return rows


#: Row tasks hold at most the fewest whole sampling passes that reach
#: this many matrices.  A task costs the parent about 0.6 ms of CPU to
#: submit and consume, and one matrix at n = 200 takes a worker 3-4 ms.
ROW_TASK_MATRICES = 8


def _row_study(n: int, master_seed: int, replications: int, columns: int = len(STAT_KEYS)) -> tuple:
    """The :func:`_task_pool` study of ``replications`` rows of ``columns``
    columns: at most the fewest whole sampling passes that hold
    ``ROW_TASK_MATRICES`` matrices per task (one pass up to ``n = 90``)."""
    step = sample_chunk_size(n)
    return n, master_seed, replications, step * -(-ROW_TASK_MATRICES // step), columns


def _block_tasks(study: tuple) -> Iterator[list[tuple]]:
    """Tasks ``(n, root, start, stop, arg)`` over matrices ``0..count-1``
    of an ``(n, root, count, most, arg)`` study, one list per block of
    :data:`BLOCK_REPLICATIONS` matrices: the fewest tasks of at most
    ``most`` matrices, whose sizes differ by at most one."""
    n, root, count, most, arg = study
    for block in range(0, count, BLOCK_REPLICATIONS):
        size = min(BLOCK_REPLICATIONS, count - block)
        parts = -(-size // most)
        cuts = [block - (-k * size // parts) for k in range(parts + 1)]
        yield [(n, root, start, stop, arg) for start, stop in zip(cuts, cuts[1:])]


def _task_count(studies) -> int:
    """Number of tasks :func:`_block_tasks` cuts from ``studies``, in closed form."""
    block = BLOCK_REPLICATIONS
    return sum(c // block * -(-block // m) + -(-(c % block) // m) for _, _, c, m, _ in studies)


@dataclass
class _RowMoments:
    """Streaming moments of :func:`replicate_block` rows.

    Per column: the mean and the sums ``m2``..``m4`` of powers of
    deviations from it; and, when the rows hold columns 3 and 4, the
    field-mean/residual co-moment.  Pushes are Welford updates and merges
    Pébay's pairwise formulas, so a merge reproduces the concatenated
    stream up to roundoff.  A column's updates read only that column and
    the count, so its moments do not depend on which other columns the
    rows hold.
    """

    count: int
    mean: list[float]
    m2: list[float]
    m3: list[float]
    m4: list[float]
    comoment: float

    @classmethod
    def of(cls, columns: int) -> "_RowMoments":
        """An empty accumulator of rows of the first ``columns`` columns."""
        return cls(0, *([0.0] * columns for _ in range(4)), 0.0)

    def push(self, rows: np.ndarray) -> None:
        """Push ``rows``, in order."""
        mean, m2, m3, m4 = self.mean, self.m2, self.m3, self.m4
        n = self.count
        paired = len(mean) == len(STAT_KEYS)
        for row in rows.tolist():
            n1, n = n, n + 1
            a4, a3 = n * n - 3 * n + 3, n - 2
            # The co-moment takes column 3's deviation from the mean before
            # the update and column 4's from the mean after it.
            dx = row[3] - mean[3] if paired else 0.0
            for j, x in enumerate(row):
                delta = x - mean[j]
                delta_n = delta / n
                delta_n2 = delta_n * delta_n
                term1 = delta * delta_n * n1
                mean[j] += delta_n
                m4[j] += term1 * delta_n2 * a4 + 6.0 * delta_n2 * m2[j] - 4.0 * delta_n * m3[j]
                m3[j] += term1 * delta_n * a3 - 3.0 * delta_n * m2[j]
                m2[j] += term1
            if paired:
                self.comoment += dx * (row[4] - mean[4])
        self.count = n

    def merge(self, other: "_RowMoments") -> None:
        """Append ``other``'s stream to this one; an empty side copies."""
        if self.count == 0:
            self.count, self.comoment = other.count, other.comoment
            self.mean, self.m2 = other.mean[:], other.m2[:]
            self.m3, self.m4 = other.m3[:], other.m4[:]
            return
        if other.count == 0:
            return
        na, nb = self.count, other.count
        n = na + nb
        deltas = [b - a for a, b in zip(self.mean, other.mean)]
        if len(deltas) == len(STAT_KEYS):
            self.comoment = self.comoment + other.comoment + deltas[3] * deltas[4] * na * nb / n
        for j, delta in enumerate(deltas):
            d2 = delta * delta
            a2, a3, b2, b3 = self.m2[j], self.m3[j], other.m2[j], other.m3[j]
            self.mean[j] += delta * nb / n
            self.m2[j] = a2 + b2 + d2 * na * nb / n
            self.m3[j] = (
                a3
                + b3
                + d2 * delta * na * nb * (na - nb) / (n * n)
                + 3.0 * delta * (na * b2 - nb * a2) / n
            )
            self.m4[j] = (
                self.m4[j]
                + other.m4[j]
                + d2 * d2 * na * nb * (na * na - na * nb + nb * nb) / (n**3)
                + 6.0 * d2 * (na * na * b2 + nb * nb * a2) / (n * n)
                + 4.0 * delta * (na * b3 - nb * a3) / n
            )
        self.count = n

    def summaries(self) -> dict[str, StatSummary]:
        """One :class:`StatSummary` per column held, keyed by :data:`STAT_KEYS`;
        the variance is unbiased and its standard error comes from the
        fourth moment."""
        n = self.count
        summaries = {}
        for key, mean, m2, m4 in zip(STAT_KEYS, self.mean, self.m2, self.m4):
            variance = m2 / (n - 1)
            var_of_var = (m4 / n - variance * variance * (n - 3) / (n - 1)) / n
            summaries[key] = StatSummary(
                mean, variance, math.sqrt(variance / n), math.sqrt(max(var_of_var, 0.0))
            )
        return summaries

    @property
    def covariance(self) -> float:
        """Unbiased field-mean/residual covariance (of full rows only)."""
        return self.comoment / (self.count - 1)


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


def _run_task(fn, task: tuple):
    """``fn(n, seeds, arg)`` of one task, its seeds derived where it runs."""
    n, root, start, stop, arg = task
    return fn(n, _child_seeds(root, start, stop), arg)


def _run(mapper, fn, studies: list[tuple]) -> Iterator[Iterator[list]]:
    """For each study in turn, an iterator over its blocks, each the list
    of ``fn``'s results on that block's tasks, which ``mapper`` maps in
    task order.  Each study's blocks are to be read before the next study."""
    tasks = (task for study in studies for block in _block_tasks(study) for task in block)
    results = mapper(partial(_run_task, fn), tasks)
    for study in studies:
        yield ([next(results) for _ in block] for block in _block_tasks(study))


@contextmanager
def _task_pool(workers: int, *phases: list[tuple]):
    """Yield ``run(fn, studies)``, which calls ``fn(n, seeds, arg)`` on every
    task of ``studies`` and yields each study's results grouped by block
    (see :func:`_run`).

    ``run`` is backed by a process pool of ``min(workers, cores, tasks)``
    processes, where ``tasks`` counts the tasks of the longest of the
    ``phases`` (lists of studies), or runs in this process when that is 1.
    One pool serves every ``run`` call inside the ``with`` block.
    """
    if workers < 1:
        raise ValueError("worker count must be at least 1")
    # More processes than tasks or than the cores this process may run on
    # cannot help, and the pool starts all of them at the first submit.
    affinity = getattr(os, "sched_getaffinity", None)
    cores = len(affinity(0)) if affinity else os.cpu_count() or 1
    workers = min(workers, cores, max(map(_task_count, phases)))
    if workers <= 1:
        yield partial(_run, map)
        return
    # multiprocessing loads with the first pool, not with this module.
    from concurrent.futures.process import ProcessPoolExecutor

    logger.info("task pool: %d workers", workers)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield partial(_run, partial(_windowed_map, pool, TASKS_PER_WORKER * workers))


def _moments(blocks: Iterator[list[np.ndarray]], columns: int) -> tuple[_RowMoments, int]:
    """Moments of the first ``columns`` columns of one row study's
    ``blocks`` (see :func:`_run`), and the greedy violations among them (0
    unless the greedy column is held).

    It pushes each block's rows in replication order into the block's own
    moments and merges the blocks in block order.
    """
    moments = _RowMoments.of(columns)
    greedy_violations = 0
    for block in blocks:
        block_moments = _RowMoments.of(columns)
        for rows in block:
            block_moments.push(rows)
            if columns > 2:
                greedy_violations += int((rows[:, 2] > rows[:, 0]).sum())
        # Merging into an empty accumulator copies, so block 0 passes unchanged.
        moments.merge(block_moments)
    return moments, greedy_violations


def _estimates(studies: list[tuple], workers: int) -> list[EstimateReport]:
    """One report per full-row study ``(n, master_seed, replications, ...)``,
    every study's tasks on one pool."""
    reports = []
    with _task_pool(workers, studies) as run:
        results = run(replicate_block, studies)
        for (n, master_seed, replications, *_), blocks in zip(studies, results):
            logger.info("estimate: n=%d replications=%d", n, replications)
            moments, greedy_violations = _moments(blocks, len(STAT_KEYS))
            summaries = moments.summaries()
            scale = math.sqrt(2.0 * log_factorial(n))
            max_summary = summaries["max_value"]
            reports.append(
                EstimateReport(
                    n=n,
                    replications=replications,
                    master_seed=master_seed,
                    **summaries,
                    ratio=max_summary.mean / scale if scale > 0.0 else math.nan,
                    ratio_std_error=max_summary.mean_std_error / scale if scale > 0.0 else math.nan,
                    cov_field_mean_residual=moments.covariance,
                    greedy_violations=greedy_violations,
                )
            )
    return reports


def estimate(
    n: int, replications: int, master_seed: int, workers: int = 1
) -> EstimateReport:
    """Replicated moment estimates for the extremes at size ``n``.

    Replication ``k`` uses ``derive_seed(master_seed, k)``.  Workers
    compute the rows of the study's tasks; the parent pushes them in
    replication order into fixed blocks of :data:`BLOCK_REPLICATIONS`
    merged in block order, so the report does not depend on ``workers``.
    """
    if replications < 2:
        raise ValueError("need at least 2 replications")
    return _estimates([_row_study(n, master_seed, replications)], workers)[0]


def ratio_table(
    n_list: list[int], replications: int, master_seed: int, workers: int = 1
) -> list[EstimateReport]:
    """One :func:`estimate` per size, for the convergence study of the
    ratio mean-maximum / ``sqrt(2 log(n!))``.

    The estimate for size ``n`` runs under ``derive_seed(master_seed, n)``,
    so rows are independent of each other and of the list order.  One
    worker pool runs every size's tasks as one stream.
    """
    if any(n < 2 for n in n_list):
        raise ValueError("ratio table sizes must be at least 2")
    if replications < 2:
        raise ValueError("need at least 2 replications")
    studies = [_row_study(n, derive_seed(master_seed, n), replications) for n in n_list]
    return _estimates(studies, workers)
