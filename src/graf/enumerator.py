"""Exhaustive small-size studies of the assignment field.

Everything here walks all ``n!`` assignments: full field enumeration,
near-maximal set counting and its expected dimension
``E log|A| / log(n!)``, exact agreement histograms, and correlation-ball
counts, which ``graf verify`` compares with their closed form.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from graf._permutations import perm_table, raw_sum_blocks
from graf.combinatorics import in_correlation_ball
from graf.field import CostMatrix, _assignment, sample_cost_entries
from graf.montecarlo import _moments, _row_study, _task_pool, derive_seed, replicate_block

logger = logging.getLogger(__name__)

#: Full enumeration cap: 9! = 362,880 assignments.
ENUM_N_MAX = 9
#: Histogram / ball checks walk the group once per reference; 8! keeps the
#: whole acceptance grid in seconds.
HISTOGRAM_N_MAX = 8
#: Most assignments one near-max counting task walks, so a task's dispatch
#: and sampling are paid once for all its matrices.  Tasks split each
#: block of a size's matrices equally, to within one: 100 matrices make
#: tasks of 50 and 50 at n = 8 and ten of 10 at n = 9 (at most 11).
COUNT_TASK_ASSIGNMENTS = 4_000_000
#: Exhaustive pair average cap: 7!**2 ordered pairs.
_MEAN_CORRELATION_N_MAX = 7
#: Most near-max counts (matrices times counting variants) a
#: :func:`nearmax_table` call may hold; ``notes/decisions.md``, "One task rule".
_COUNTS_MAX = 1 << 25
#: Enumerated sums per float partial of :func:`enumerated_field_mean`,
#: fixed here so its last bit does not move with the walk's block size.
MEAN_PARTIAL_ROWS = 1 << 16


def _raw_sums(entries: np.ndarray) -> np.ndarray:
    """Every assignment's un-normalized cost, in lexicographic order;
    ValueError past ``ENUM_N_MAX``."""
    if entries.shape[0] > ENUM_N_MAX:
        raise ValueError(f"full enumeration is capped at n={ENUM_N_MAX}")
    sums = np.empty(math.factorial(entries.shape[0]))
    for start, _, block in raw_sum_blocks(entries):
        sums[start : start + len(block)] = block
    return sums


def enumerate_field(c: CostMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Every assignment with its field value, in lexicographic order.

    Returns ``(perms, values)``: the read-only ``(n!, n)`` table of 0-based
    column indices from :func:`perm_table` and the ``n!`` field values.
    """
    values = _raw_sums(c.entries)
    values /= math.sqrt(c.n)
    return perm_table(c.n), values


def enumerated_field_mean(c: CostMatrix) -> float:
    """Average field value over all assignments, by enumeration.

    Equals ``sum_ij c(i, j) / (n * sqrt(n))`` up to roundoff; this is the
    enumeration side of that identity.  It fsums one float partial per
    :data:`MEAN_PARTIAL_ROWS` sums.
    """
    sums = _raw_sums(c.entries)
    total = math.fsum(
        float(sums[k : k + MEAN_PARTIAL_ROWS].sum()) for k in range(0, len(sums), MEAN_PARTIAL_ROWS)
    )
    return total / (math.factorial(c.n) * math.sqrt(c.n))


def _sizes_above(entries: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Count, per threshold, the assignments whose raw sum is strictly above
    it.

    Each block of the walk is compared once, with the lowest threshold,
    and only the sums above it are kept: a near-max set holds a few dozen
    of the ``n!`` assignments.  Every threshold is then counted on those
    sums, so the counts are those of one comparison per block and
    threshold.
    """
    lowest = thresholds.min()
    kept = np.concatenate([sums[sums > lowest] for _, _, sums in raw_sum_blocks(entries)])
    return np.array([np.count_nonzero(kept > t) for t in thresholds], dtype=np.int64)


def _count_matrices(n: int, seeds: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Near-max set sizes of the matrices drawn from ``seeds``, one row per
    matrix and one column per threshold.

    Each matrix is one walk of :func:`raw_sum_blocks`, which owns its sums
    buffer, so nothing is shared between matrices, tasks or threads.
    """
    return np.array([_sizes_above(c, thresholds) for c in sample_cost_entries(n, seeds)])


def _count_study(n: int, master_seed: int, replications: int) -> tuple:
    """The :func:`~graf.montecarlo._task_pool` study of ``replications``
    matrices counted at size ``n``, at most ``COUNT_TASK_ASSIGNMENTS``
    assignments (at least one matrix) a task; thresholds replace ``None``
    after the m-pass."""
    most = max(1, COUNT_TASK_ASSIGNMENTS // math.factorial(n))
    return n, derive_seed(master_seed, n, 1), replications, most, None


def _count_variants(eps_list: list[float], sensitivity: bool, replications: int) -> list:
    """One counting variant per (epsilon, mean shift) pair; ValueError if
    ``replications`` matrices of them are more than ``_COUNTS_MAX`` counts."""
    shifts = [0.0, -2.0, 2.0] if sensitivity else [0.0]
    variants = [(eps, shift) for eps in eps_list for shift in shifts]
    if replications * len(variants) > _COUNTS_MAX:
        raise ValueError(
            f"{replications} matrices times {len(variants)} variants exceed {_COUNTS_MAX} counts"
        )
    return variants


@dataclass(frozen=True)
class NearMaxReport:
    """Size of one instance's near-maximal assignment set."""

    set_size: int


def near_maximal_set(c: CostMatrix, eps: float, m_used: float) -> NearMaxReport:
    """Count assignments whose field value exceeds ``(1 - eps) * m_used``,
    as :func:`nearmax_table` counts them; the benchmark's traced recount
    reads it (``notes/decisions.md``, "near_maximal_set keeps only its
    count")."""
    if c.n > ENUM_N_MAX:
        raise ValueError(f"full enumeration is capped at n={ENUM_N_MAX}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {eps}")
    if not math.isfinite(m_used):
        raise ValueError("plug-in mean must be finite")
    threshold = (1.0 - eps) * m_used * math.sqrt(c.n)
    return NearMaxReport(set_size=int(_sizes_above(c.entries, np.array([threshold]))[0]))


@dataclass(frozen=True)
class DimensionSummary:
    """Aggregated near-maximal-set statistics for one size and epsilon.

    ``mean_log_size_nonempty`` averages ``log(size)`` over the non-empty
    instances; ``dimension`` divides the indicator-weighted mean
    ``E[log(size); non-empty]`` (empty instances contribute zero) by
    ``log(n!)``, with ``se_dimension`` its standard error.  ``m_shift_se``
    records how many standard errors the plug-in mean was shifted for
    sensitivity rows (0 for the base row).

    ``bound_small`` and ``bound_large`` are the two shapes of the
    asymptotic bound on ``E log|A|``, ``(n log n)**(3/4)`` and
    ``sqrt(eps) * n log n``, with unit constants: the paper leaves the
    constants unspecified, and each column scales by any of them
    (:func:`~graf.bounds.nearmax_theorem_bound` takes them and picks the
    regime).  Since the sets nest, ``dimension`` is
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
    sensitivity: bool = False,
    workers: int = 1,
) -> list[DimensionSummary]:
    """Estimate the expected near-maximal-set dimension per size and epsilon.

    For each ``n`` the plug-in mean is estimated once from a separate
    high-replication pass (``m_reps`` replications under seed path
    ``(n, 0)``) that solves and accumulates the maximum only; its mean and
    standard error equal :func:`~graf.montecarlo.estimate`'s ``max_value``
    bit for bit.  Then ``replications`` matrices drawn under seed path
    ``(n, 1, k)`` are enumerated, in tasks of at most
    :data:`COUNT_TASK_ASSIGNMENTS` assignments (see :func:`_count_study`);
    every epsilon is counted on the same matrices, at most ``_COUNTS_MAX``
    counts in all.  With ``sensitivity`` enabled, extra rows re-count the
    sets with the plug-in mean shifted by +-2 standard errors.  One worker
    pool runs every size's m-pass as one task stream, then every size's
    counting as another, so it drains twice per call, and it is sized by
    the longer stream.  The counts are integers, so the table does not
    depend on ``workers``.

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
    variants = _count_variants(eps_list, sensitivity, replications)
    m_studies = [_row_study(n, derive_seed(master_seed, n, 0), m_reps, 1) for n in n_list]
    count_studies = [_count_study(n, master_seed, replications) for n in n_list]
    rows: list[DimensionSummary] = []
    with _task_pool(workers, m_studies, count_studies) as run:
        # Each phase is one stream over every size, so the pool drains
        # once per phase, not once per size.
        m_blocks = run(replicate_block, m_studies)
        m_passes = [_moments(blocks, 1)[0].summaries()["max_value"] for blocks in m_blocks]
        eps_v, shift_v = np.array(variants).T
        count_studies = [
            (*study[:4], (1.0 - eps_v) * (m.mean + shift_v * m.mean_std_error) * math.sqrt(n))
            for n, study, m in zip(n_list, count_studies, m_passes)
        ]
        counts = run(_count_matrices, count_studies)
        for n, m_pass, blocks in zip(n_list, m_passes, counts):
            m_hat, m_se = m_pass.mean, m_pass.mean_std_error
            sizes = np.concatenate([rows for block in blocks for rows in block])
            log_nfact = math.lgamma(n + 1)
            for v, (eps, shift) in enumerate(variants):
                # math.log once per distinct size (np.log can differ in the last
                # bit); empty sets contribute zero to the indicator-weighted log size.
                present = np.flatnonzero(np.bincount(sizes[:, v]))
                logs = np.zeros(present[-1] + 1)
                logs[present] = [math.log(s) if s else 0.0 for s in present.tolist()]
                indicator = logs[sizes[:, v]]
                ne = sizes[:, v] > 0
                ne_count = int(ne.sum())
                nonempty = indicator[ne]
                cond_mean = float(nonempty.mean()) if ne_count else math.nan
                cond_se = nonempty.std(ddof=1) / math.sqrt(ne_count) if ne_count >= 2 else math.nan
                rows.append(
                    DimensionSummary(
                        n=n,
                        epsilon=eps,
                        m_used=m_hat + shift * m_se,
                        m_std_error=m_se,
                        replications=replications,
                        empty_fraction=1.0 - ne_count / replications,
                        mean_log_size_nonempty=cond_mean,
                        se_log_size=float(cond_se),
                        dimension=float(indicator.mean()) / log_nfact,
                        se_dimension=float(indicator.std(ddof=1))
                        / math.sqrt(replications)
                        / log_nfact,
                        bound_small=(n * math.log(n)) ** 0.75,
                        bound_large=math.sqrt(eps) * n * math.log(n),
                        m_shift_se=shift,
                    )
                )
            logger.info("near-max table: n=%d done (%d variants)", n, len(variants))
    return rows


def correlation_histogram_exact(
    n: int, reference: np.ndarray | Sequence[int] | None = None
) -> tuple[int, ...]:
    """Exact agreement histogram of the group against a reference.

    Item ``k`` counts the permutations sharing exactly ``k`` positions with
    the reference, a 0-based column array (identity by default); the
    histogram does not depend on the reference, and equals the rencontres
    counts ``C(n, k) * D_{n-k}``.
    """
    if not 1 <= n <= HISTOGRAM_N_MAX:
        raise ValueError(f"exact histograms are capped at n={HISTOGRAM_N_MAX}")
    ref = np.arange(n) if reference is None else _assignment(reference, n)
    agreements = (perm_table(n) == ref[np.newaxis, :]).sum(axis=1)
    return tuple(np.bincount(agreements, minlength=n + 1).tolist())


def ball_counts_exact(n: int, delta: float, seed: int = 0) -> tuple[int, int, int]:
    """Count the permutations with correlation above ``1 - delta`` around
    three references drawn from ``derive_seed(seed, n)``.

    Each count is the size of one correlation ball ``V(n, delta)``, so all
    three should equal the closed form ``ball_size(n, delta)``.
    """
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, n)))
    counts = []
    for _ in range(3):
        histogram = correlation_histogram_exact(n, rng.permutation(n))
        counts.append(
            sum(histogram[k] for k in range(1, n + 1) if in_correlation_ball(k, n, delta))
        )
    return tuple(counts)


def mean_correlation_exhaustive(n: int) -> Fraction:
    """Average correlation over all ordered permutation pairs, exactly.

    Exhaustive ``n!**2`` computation (chunked); the result is the rational
    ``1/n``.  Capped at ``n = _MEAN_CORRELATION_N_MAX``.
    """
    if not 1 <= n <= _MEAN_CORRELATION_N_MAX:
        raise ValueError(f"exhaustive pair average is capped at n={_MEAN_CORRELATION_N_MAX}")
    table = perm_table(n).astype(np.int16)
    total_agreements = 0
    chunk = max(1, 2_000_000 // max(1, table.shape[0]))
    for start in range(0, table.shape[0], chunk):
        block = table[start : start + chunk]
        matches = block[:, np.newaxis, :] == table[np.newaxis, :, :]
        total_agreements += int(matches.sum())
    nfact = math.factorial(n)
    return Fraction(total_agreements, nfact * nfact * n)
