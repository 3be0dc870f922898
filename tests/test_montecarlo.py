import copy
import itertools
import math
import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import ks_2samp

from graf import _scipy, montecarlo
from graf.enumerator import enumerated_field_mean
from graf.field import (
    SAMPLE_N_MAX,
    SEED_MAX,
    field_value,
    sample_chunk_size,
    sample_cost_entries,
    sample_cost_matrix,
)
from graf.montecarlo import (
    STAT_KEYS,
    derive_seed,
    estimate,
    ratio_table,
    replicate_block,
)
from graf.solvers import solve_max_exact, solve_min_exact

from conftest import (
    RunningCovariance,
    RunningStats,
    assume_cores,
    greedy_oracle,
    ks_critical_value,
    merge_stats,
    symmetry_statistic,
)


def stats_from(values) -> RunningStats:
    s = RunningStats()
    for x in values:
        s.push(float(x))
    return s


def oracle_moments(stats: list[RunningStats], cov: RunningCovariance):
    """The fused row accumulator that one scalar accumulator per column and
    the field-mean/residual covariance predict."""
    assert [s.count for s in stats] == [cov.count] * len(STAT_KEYS)
    assert (cov.mean_x, cov.mean_y) == (stats[3].mean, stats[4].mean)
    return montecarlo._RowMoments(
        cov.count,
        [s.mean for s in stats],
        [s.m2 for s in stats],
        [s.m3 for s in stats],
        [s.m4 for s in stats],
        cov.comoment,
    )


def scalar_push(rows: np.ndarray) -> tuple[list[RunningStats], RunningCovariance]:
    """``rows`` pushed a value at a time into the scalar oracle."""
    stats, cov = [RunningStats() for _ in STAT_KEYS], RunningCovariance()
    for row in rows.tolist():
        for accum, value in zip(stats, row):
            accum.push(value)
        cov.push(row[3], row[4])
    return stats, cov


def replication(n: int, seed: int) -> dict[str, float]:
    """One replication: a single-seed row of ``replicate_block`` by name."""
    return dict(zip(STAT_KEYS, replicate_block(n, [seed])[0].tolist()))


def oracle_row(n: int, seed: int) -> list[float]:
    """A replication built from the scalar sampler and solvers and the
    row-loop greedy."""
    c = sample_cost_matrix(n, seed)
    max_value = solve_max_exact(c).field_value
    field_mean = float(c.entries.sum()) / (n * math.sqrt(n))
    return [
        max_value,
        solve_min_exact(c).field_value,
        field_value(c, greedy_oracle(c.entries)),
        field_mean,
        max_value - field_mean,
    ]


class TestDeriveSeed:
    def test_deterministic_and_spread(self):
        seeds = [derive_seed(42, k) for k in range(1000)]
        assert seeds == [derive_seed(42, k) for k in range(1000)]
        assert len(set(seeds)) == 1000
        assert all(0 <= s < 2**64 for s in seeds)

    def test_path_composes(self):
        assert derive_seed(7, 3, 9) == derive_seed(derive_seed(7, 3), 9)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            derive_seed(-1, 0)
        with pytest.raises(ValueError):
            derive_seed(1, -2)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, SEED_MAX),
        st.lists(st.integers(0, 2**32), max_size=3),
        st.integers(0, 2**62),
        st.integers(0, 300),
    )
    def test_child_seeds_match_scalar(self, root, prefix, start, count):
        children = montecarlo._child_seeds(derive_seed(root, *prefix), start, start + count)
        assert children.dtype == np.uint64
        expected = [derive_seed(root, *prefix, k) for k in range(start, start + count)]
        assert children.tolist() == expected

    def test_child_seeds_reject_bad_input(self):
        for parent, start in [(-1, 0), (SEED_MAX + 1, 0), (1, -2)]:
            with pytest.raises(ValueError):
                montecarlo._child_seeds(parent, start, start + 3)


class TestRunningStats:
    def test_matches_numpy_moments(self, rng):
        values = rng.standard_normal(5000) * 2.3 + 0.7
        s = stats_from(values)
        assert s.count == 5000
        assert s.mean == pytest.approx(values.mean(), rel=1e-12)
        assert s.variance == pytest.approx(values.var(ddof=1), rel=1e-10)
        centered = values - values.mean()
        assert s.m3 == pytest.approx((centered**3).sum(), rel=1e-8, abs=1e-6)
        assert s.m4 == pytest.approx((centered**4).sum(), rel=1e-8)

    def test_merge_identity(self):
        s = stats_from([1.0, 2.0, 4.0])
        merged = merge_stats(s, RunningStats())
        assert merged == s
        assert merge_stats(RunningStats(), s) == s

    def test_merge_equals_single_pass(self, rng):
        values = rng.standard_normal(10_000)
        merged = merge_stats(stats_from(values[:5000]), stats_from(values[5000:]))
        single = stats_from(values)
        assert merged.count == single.count
        assert merged.mean == pytest.approx(single.mean, rel=1e-10)
        assert merged.m2 == pytest.approx(single.m2, rel=1e-10)
        assert merged.m3 == pytest.approx(single.m3, rel=1e-8, abs=1e-8)
        assert merged.m4 == pytest.approx(single.m4, rel=1e-10)

    def test_merge_commutes(self, rng):
        a = stats_from(rng.standard_normal(100))
        b = stats_from(rng.standard_normal(37) + 5.0)
        ab, ba = merge_stats(a, b), merge_stats(b, a)
        assert ab.mean == pytest.approx(ba.mean, rel=1e-10)
        assert ab.m2 == pytest.approx(ba.m2, rel=1e-10)
        assert ab.m4 == pytest.approx(ba.m4, rel=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=40),
        st.lists(st.floats(-1e3, 1e3), min_size=0, max_size=40),
    )
    def test_merge_any_split(self, left, right):
        merged = merge_stats(stats_from(left), stats_from(right))
        single = stats_from(left + right)
        assert merged.count == single.count
        assert merged.mean == pytest.approx(single.mean, rel=1e-9, abs=1e-9)
        assert merged.m2 == pytest.approx(single.m2, rel=1e-9, abs=1e-6)

    def test_variance_std_error_formula(self, rng):
        values = rng.standard_normal(20_000)
        s = stats_from(values)
        n = values.size
        m4c = ((values - values.mean()) ** 4).mean()
        s2 = values.var(ddof=1)
        oracle = math.sqrt((m4c - s2 * s2 * (n - 3) / (n - 1)) / n)
        assert s.variance_std_error == pytest.approx(oracle, rel=1e-8)

    def test_needs_two_observations(self):
        with pytest.raises(ValueError):
            _ = stats_from([1.0]).variance


class TestRunningCovariance:
    def test_matches_numpy(self, rng):
        x = rng.standard_normal(4000)
        y = 0.3 * x + rng.standard_normal(4000)
        cov = RunningCovariance()
        for a, b in zip(x, y):
            cov.push(float(a), float(b))
        assert cov.covariance == pytest.approx(np.cov(x, y, ddof=1)[0, 1], rel=1e-10)

    def test_merge(self, rng):
        x = rng.standard_normal(2000)
        y = rng.standard_normal(2000) - 0.5 * x
        half = 1000
        a, b = RunningCovariance(), RunningCovariance()
        for i in range(half):
            a.push(float(x[i]), float(y[i]))
        for i in range(half, 2000):
            b.push(float(x[i]), float(y[i]))
        merged = a.merge(b)
        assert merged.count == 2000
        assert merged.covariance == pytest.approx(np.cov(x, y, ddof=1)[0, 1], rel=1e-10)


class TestRowMoments:
    """The fused row accumulator equals the scalar oracle bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(0, 30), st.just(len(STAT_KEYS))),
            elements=st.floats(-1e3, 1e3),
        ),
        st.data(),
    )
    def test_matches_scalar_oracle(self, rows, data):
        split = data.draw(st.integers(0, len(rows)), label="split")
        left = montecarlo._RowMoments.of(len(STAT_KEYS))
        right = montecarlo._RowMoments.of(len(STAT_KEYS))
        left.push(rows[:split])
        right.push(rows[split:])
        left_stats, left_cov = scalar_push(rows[:split])
        right_stats, right_cov = scalar_push(rows[split:])
        assert left == oracle_moments(left_stats, left_cov)
        assert right == oracle_moments(right_stats, right_cov)

        # A second push continues the stream.
        pushed = montecarlo._RowMoments.of(len(STAT_KEYS))
        pushed.push(rows[:split])
        pushed.push(rows[split:])
        assert pushed == oracle_moments(*scalar_push(rows))

        left.merge(right)
        stats = [merge_stats(a, b) for a, b in zip(left_stats, right_stats)]
        cov = left_cov.merge(right_cov)
        assert left == oracle_moments(stats, cov)
        if len(rows) >= 2:
            assert left.summaries() == {k: s.summary() for k, s in zip(STAT_KEYS, stats)}
            assert left.covariance == cov.covariance

    @pytest.mark.parametrize("columns", range(1, len(STAT_KEYS) + 1))
    def test_leading_columns_accumulate_alone(self, columns, rng):
        # A column's moments read only that column, and the co-moment is
        # kept only when the rows hold columns 3 and 4.
        rows = rng.standard_normal((23, len(STAT_KEYS)))
        full, part = [montecarlo._RowMoments.of(k) for k in (len(STAT_KEYS), columns)]
        more_full, more_part = [montecarlo._RowMoments.of(k) for k in (len(STAT_KEYS), columns)]
        full.push(rows[:9])
        part.push(rows[:9, :columns])
        more_full.push(rows[9:])
        more_part.push(rows[9:, :columns])
        full.merge(more_full)
        part.merge(more_part)
        assert part.count == full.count
        for name in ("mean", "m2", "m3", "m4"):
            assert getattr(part, name) == getattr(full, name)[:columns]
        assert part.comoment == (full.comoment if columns == len(STAT_KEYS) else 0.0)
        assert part.summaries() == {
            key: summary for key, summary in full.summaries().items() if key in STAT_KEYS[:columns]
        }

    def test_merge_into_empty_copies(self, rng):
        # The merged accumulator shares no list with its source.
        full = montecarlo._RowMoments.of(len(STAT_KEYS))
        full.push(rng.standard_normal((7, len(STAT_KEYS))))
        snapshot = copy.deepcopy(full)
        merged = montecarlo._RowMoments.of(len(STAT_KEYS))
        merged.merge(full)
        assert merged == full
        merged.push(np.ones((1, len(STAT_KEYS))))
        assert full == snapshot


class TestRunReplication:
    def test_degenerate_size(self):
        s = replication(1, 123)
        c = sample_cost_matrix(1, 123)
        value = float(c.entries[0, 0])
        assert s["max_value"] == s["min_value"] == s["greedy_value"] == value
        assert s["field_mean"] == pytest.approx(value, rel=1e-15)
        assert s["residual_max"] == 0.0

    def test_deterministic(self):
        assert replication(5, 123) == replication(5, 123)

    def test_invariants(self):
        rows = replicate_block(6, [derive_seed(9, k) for k in range(50)])
        for max_value, min_value, greedy_value, field_mean, residual_max in rows:
            assert greedy_value <= max_value
            assert min_value <= field_mean <= max_value
            assert max_value == pytest.approx(field_mean + residual_max, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_field_mean_matches_enumeration(self, n):
        # The closed form must equal the enumerated average over all n!
        # assignments.
        for seed in (3, 17):
            field_mean = replication(n, seed)["field_mean"]
            c = sample_cost_matrix(n, seed)
            assert field_mean == pytest.approx(enumerated_field_mean(c), abs=1e-10)


class TestReplicateBlock:
    """The batched kernel reproduces the scalar sampler and solvers bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.lists(st.integers(0, SEED_MAX), max_size=6))
    def test_rows_match_scalar_oracle(self, n, seeds):
        seeds = [0, *seeds, SEED_MAX]
        assert replicate_block(n, seeds).tolist() == [oracle_row(n, s) for s in seeds]

    @settings(max_examples=3, deadline=None)
    @given(root=st.integers(0, SEED_MAX))
    @pytest.mark.parametrize("n, batch", [(39, 50), (40, 45), (60, 40), (120, 5), (257, 3)])
    def test_batches_spanning_sampling_passes(self, n, batch, root):
        # 60x60 matrices split a 40-seed batch across passes; a 257x257
        # matrix fills a pass on its own.  n = 39 and 40 lie on either side
        # of REDUCED_COST_N_MIN.
        assert sample_chunk_size(n) < batch
        seeds = [derive_seed(root, k) for k in range(batch)]
        assert replicate_block(n, seeds).tolist() == [oracle_row(n, s) for s in seeds]

    def test_empty_batch(self):
        assert replicate_block(4, []).shape == (0, len(STAT_KEYS))

    @pytest.mark.parametrize("columns", range(1, len(STAT_KEYS) + 1))
    @pytest.mark.parametrize("n", [1, 5, 60])
    def test_leading_columns_alone(self, n, columns):
        seeds = [derive_seed(12, k) for k in range(40)]
        full = replicate_block(n, seeds)
        part = replicate_block(n, seeds, columns)
        assert part.shape == (40, columns)
        assert np.array_equal(part.view(np.uint64), full[:, :columns].view(np.uint64))

    def test_max_column_solves_the_max_only(self, monkeypatch):
        calls = []

        def recording_lsa(c, maximize=False):
            calls.append(maximize)
            return montecarlo_lsa(c, maximize=maximize)

        def no_greedy(entries):
            raise AssertionError("greedy ran")

        # replicate_block takes the solver from graf._scipy when called.
        montecarlo_lsa = _scipy.linear_sum_assignment()
        monkeypatch.setattr(_scipy, "linear_sum_assignment", lambda: recording_lsa)
        monkeypatch.setattr(montecarlo, "greedy_columns", no_greedy)
        replicate_block(6, [derive_seed(3, k) for k in range(7)], 1)
        assert calls == [True] * 7

    @pytest.mark.parametrize("n, count", [(40, 1000), (64, 1000), (100, 1000), (200, 40)])
    @pytest.mark.parametrize("maximize", [True, False])
    def test_reduced_costs_keep_the_solver_columns(self, n, count, maximize):
        # From REDUCED_COST_N_MIN on the kernel solves reduced costs; each
        # matrix must get the columns of the plain call.
        assert n >= montecarlo.REDUCED_COST_N_MIN
        lsa = _scipy.linear_sum_assignment()
        seeds, step = montecarlo._child_seeds(n, 0, count), sample_chunk_size(n)
        for start in range(0, count, step):
            entries = sample_cost_entries(n, seeds[start : start + step])
            solved = montecarlo._lsa_columns(entries, maximize)
            plain = [lsa(c, maximize=maximize)[1] for c in entries]
            assert all(np.array_equal(a, b) for a, b in zip(solved, plain)), start

    @pytest.mark.parametrize("columns", [0, len(STAT_KEYS) + 1])
    def test_rejects_bad_column_count(self, columns):
        with pytest.raises(ValueError, match="columns must lie in 1..5"):
            replicate_block(4, [1], columns)

    def test_rejects_empty_matrix(self):
        for kernel in (replicate_block, sample_cost_entries):
            with pytest.raises(ValueError, match="size"):
                kernel(0, [1])

    def test_rejects_size_above_limit(self):
        # Checked before the sampler allocates its n*n buffers.
        message = f"1..{SAMPLE_N_MAX}, got {SAMPLE_N_MAX + 1}"
        for kernel in (replicate_block, sample_cost_entries):
            with pytest.raises(ValueError, match=message):
                kernel(SAMPLE_N_MAX + 1, [1])
        with pytest.raises(ValueError, match=message):
            estimate(SAMPLE_N_MAX + 1, 2, 0)
        with pytest.raises(ValueError, match=message):
            ratio_table([10, SAMPLE_N_MAX + 1], 2, 0)

    def test_block_accumulators_push_rows_in_order(self):
        n, master_seed, start, stop = 5, 77, 3, 260
        rows = replicate_block(n, [derive_seed(master_seed, k) for k in range(start, stop)])
        moments = montecarlo._RowMoments.of(len(STAT_KEYS))
        moments.push(rows)
        expected = [oracle_row(n, derive_seed(master_seed, k)) for k in range(start, stop)]
        assert moments == oracle_moments(*scalar_push(np.array(expected)))

    @pytest.mark.parametrize("bad", [-1, SEED_MAX + 1])
    def test_sampler_rejects_any_bad_seed(self, bad):
        with pytest.raises(ValueError, match="64-bit"):
            sample_cost_entries(3, [0, 5, bad, 7])

    @pytest.mark.parametrize("bad", [-1, SEED_MAX + 1])
    @pytest.mark.parametrize("form", [list, np.array], ids=["list", "array"])
    def test_kernel_rejects_any_bad_seed(self, bad, form):
        # np.array gives int64 for -1 and an object array for 2**64.
        for kernel in (replicate_block, sample_cost_entries):
            with pytest.raises(ValueError, match="64-bit"):
                kernel(3, form([0, 5, bad, 7]))

    @pytest.mark.parametrize("n", [1, 6, 60])
    def test_uint64_array_matches_list(self, n):
        seeds = montecarlo._child_seeds(31, 0, 40)
        assert seeds.dtype == np.uint64
        assert np.array_equal(replicate_block(n, seeds), replicate_block(n, seeds.tolist()))


class TestEstimate:
    def test_worker_invariance(self):
        serial = estimate(4, 5000, 42, workers=1)
        parallel = estimate(4, 5000, 42, workers=2)
        assert serial == parallel

    def test_deterministic(self):
        assert estimate(3, 500, 7) == estimate(3, 500, 7)

    def test_degenerate_size(self):
        report = estimate(1, 3000, 11)
        assert report.residual_max.mean == 0.0
        assert report.residual_max.variance == 0.0
        # gbar at n=1 is a single standard Gaussian.
        assert abs(report.field_mean.variance - 1.0) < 5 * report.field_mean.variance_std_error

    def test_greedy_never_wins(self):
        assert estimate(6, 2000, 5).greedy_violations == 0

    def test_rejects_tiny_runs(self):
        with pytest.raises(ValueError):
            estimate(3, 1, 0)

    @pytest.mark.parametrize(
        "workers, cores, pool_size",
        [(100_000, 8, 3), (2, 8, 2), (100_000, 2, 2), (100_000, None, None)],
    )
    def test_pool_capped_at_blocks_and_cores(self, monkeypatch, workers, cores, pool_size):
        sizes = []

        class RecordingPool:
            """Stands in for the process pool: records its size, maps serially."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr("concurrent.futures.process.ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(montecarlo, "BLOCK_REPLICATIONS", 10)
        if cores is None:
            # No affinity set and no CPU count: one worker, in this process.
            monkeypatch.delattr(montecarlo.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: None)
        else:
            assume_cores(monkeypatch, cores)
        report = estimate(3, 30, 8, workers=workers)
        assert sizes == ([] if pool_size is None else [pool_size])
        assert report == estimate(3, 30, 8, workers=1)

    def test_pool_counts_the_cpus_it_may_use(self, fake_pool, monkeypatch):
        # Pinned to one CPU of an 8-CPU machine: no pool.
        monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 8)
        with montecarlo._task_pool(2, [TEN_TASKS]):
            pass
        assert fake_pool.sizes == []

    def test_pool_counts_all_cpus_without_affinity(self, fake_pool, monkeypatch):
        monkeypatch.delattr(montecarlo.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        with montecarlo._task_pool(8, [TEN_TASKS]):
            pass
        assert fake_pool.sizes == [2]

    def test_worker_invariance_across_task_boundaries(self, monkeypatch):
        # A pass of 655 rows at n = 10 does not divide a block, so row tasks
        # end at pass boundaries and at block boundaries.
        assume_cores(monkeypatch, 2)
        block, n, seed = montecarlo.BLOCK_REPLICATIONS, 10, 31
        reps = 2 * block + 700
        serial = estimate(n, reps, seed, workers=1)
        assert estimate(n, reps, seed, workers=2) == serial
        # Oracle: each block's kernel rows pushed in order, blocks merged in order.
        for start in range(0, reps, block):
            rows = replicate_block(
                n, [derive_seed(seed, k) for k in range(start, min(start + block, reps))]
            )
            block_stats, block_cov = scalar_push(rows)
            if start == 0:
                stats, cov = block_stats, block_cov
            else:
                stats = [merge_stats(a, b) for a, b in zip(stats, block_stats)]
                cov = cov.merge(block_cov)
        assert [getattr(serial, key) for key in STAT_KEYS] == [s.summary() for s in stats]
        assert serial.cov_field_mean_residual == cov.covariance

    def test_window_bounds_unfinished_tasks(self, fake_pool, monkeypatch):
        # One row per task: 30 tasks through a pool of 2.
        monkeypatch.setattr(montecarlo, "sample_chunk_size", lambda n: 1)
        monkeypatch.setattr(montecarlo, "ROW_TASK_MATRICES", 1)
        report = estimate(3, 30, 8, workers=2)
        assert fake_pool.sizes == [2]
        assert fake_pool.peak == 2 * montecarlo.TASKS_PER_WORKER
        assert fake_pool.unfinished == 0
        assert report == estimate(3, 30, 8, workers=1)


#: Studies ``(n, root, count, most, arg)`` of ten one-matrix tasks and of one matrix.
TEN_TASKS = (3, 0, 10, 1, None)
ONE_MATRIX = (3, 0, 1, 1, None)


def row_tasks(n: int, replications: int, columns: int = len(STAT_KEYS)) -> list[tuple]:
    """The row tasks of one study at size ``n``."""
    study = montecarlo._row_study(n, 5, replications, columns)
    return [task for block in montecarlo._block_tasks(study) for task in block]


def seeds_of(n: int, seeds: np.ndarray, arg) -> tuple:
    """A task function that reports what its task was given."""
    return n, seeds.tolist(), arg


class TestTaskPool:
    """``run`` yields each study's results in order, grouped per block."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_results_per_study_and_block(self, workers, monkeypatch, caplog):
        # Blocks of 10: 25 matrices cross two blocks, then a study of one
        # matrix, then a block of 10 in tasks of 3 or 4.
        assume_cores(monkeypatch, 2)
        monkeypatch.setattr(montecarlo, "BLOCK_REPLICATIONS", 10)
        studies = [(2, 11, 25, 4, "a"), (3, 12, 1, 4, "b"), (4, 13, 10, 4, "c")]
        with caplog.at_level("INFO", logger="graf.montecarlo"):
            with montecarlo._task_pool(workers, studies) as run:
                got = [list(blocks) for blocks in run(seeds_of, studies)]
        assert ("task pool: 2 workers" in caplog.text) == (workers == 2)
        assert len(got) == len(studies)
        for (n, root, count, most, arg), blocks in zip(studies, got):
            assert [[(r[0], r[2]) for r in block] for block in blocks] == [
                [(n, arg)] * len(block) for block in blocks
            ]
            assert all(0 < len(r[1]) <= most for block in blocks for r in block)
            assert [[s for r in block for s in r[1]] for block in blocks] == [
                [derive_seed(root, k) for k in range(start, min(start + 10, count))]
                for start in range(0, count, 10)
            ]
        assert [[len(block) for block in blocks] for blocks in got] == [[3, 3, 2], [1], [3]]

    @pytest.mark.parametrize(
        "phases, sizes", [([[ONE_MATRIX]], []), ([[ONE_MATRIX], [TEN_TASKS]], [2])]
    )
    def test_pool_sized_by_the_longest_phase(self, fake_pool, phases, sizes):
        with montecarlo._task_pool(8, *phases):
            pass
        assert fake_pool.sizes == sizes


class TestTasks:
    """One rule cuts the pool tasks of row studies and of near-max counting."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(1, 3 * montecarlo.BLOCK_REPLICATIONS),
                st.integers(1, montecarlo.BLOCK_REPLICATIONS + 1),
            ),
            min_size=1,
            max_size=3,
        )
    )
    def test_equal_tasks_within_each_block(self, shapes):
        block_size = montecarlo.BLOCK_REPLICATIONS
        studies = [(k + 2, 7 * k, count, most, f"arg{k}") for k, (count, most) in enumerate(shapes)]
        cut = [list(montecarlo._block_tasks(study)) for study in studies]
        assert montecarlo._task_count(studies) == sum(len(b) for blocks in cut for b in blocks)
        for (n, root, count, most, arg), blocks in zip(studies, cut):
            tasks = [task for block in blocks for task in block]
            assert {(t[0], t[1], t[4]) for t in tasks} == {(n, root, arg)}
            starts, stops = [t[2] for t in tasks], [t[3] for t in tasks]
            assert starts == [0, *stops[:-1]] and stops[-1] == count
            assert len(blocks) == -(-count // block_size)
            for block_start, block in zip(range(0, count, block_size), blocks):
                size = min(block_size, count - block_start)
                lengths = [stop - start for _, _, start, stop, _ in block]
                # None crosses the block, the fewest of at most `most` each.
                assert block[0][2] == block_start and sum(lengths) == size
                assert len(lengths) == -(-size // most)
                assert max(lengths) <= most and max(lengths) - min(lengths) <= 1
                assert montecarlo._task_count([(n, root, size, most, arg)]) == len(lengths)


class TestRowTasks:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 300), st.integers(1, 3 * montecarlo.BLOCK_REPLICATIONS))
    def test_whole_passes_of_at_least_the_least_matrices(self, n, reps):
        # A row task holds at most the fewest whole sampling passes that
        # hold 8 matrices; up to n = 90 that is one pass, so a block of s
        # rows makes ceil(s / pass) tasks.
        step, block_size = sample_chunk_size(n), montecarlo.BLOCK_REPLICATIONS
        study = montecarlo._row_study(n, 5, reps, 3)
        assert study[:3] == (n, 5, reps) and study[4] == 3
        most = study[3]
        assert most % step == 0
        assert most >= montecarlo.ROW_TASK_MATRICES > most - step
        if n <= 90:
            blocks = range(0, reps, block_size)
            one_pass_each = sum(-(-min(block_size, reps - b) // step) for b in blocks)
            assert len(row_tasks(n, reps, 3)) == one_pass_each

    @pytest.mark.parametrize(
        "n, reps, count",
        [(10, 32768, 56), (8, 4096, 4), (9, 4096, 6), (100, 512, 43), (200, 512, 64)],
    )
    def test_task_counts(self, n, reps, count):
        # estimate-small; nearmax-enum's m-pass (one column); ratio-large.
        for columns in (1, len(STAT_KEYS)):
            assert len(row_tasks(n, reps, columns)) == count


class TestRatioTable:
    def test_one_pool_per_call(self, fake_pool, monkeypatch):
        monkeypatch.setattr(montecarlo, "BLOCK_REPLICATIONS", 100)
        rows = ratio_table([3, 5], 400, 21, workers=2)
        assert fake_pool.sizes == [2]
        assert rows == ratio_table([3, 5], 400, 21, workers=1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_size_takes_its_own_rows(self, workers, monkeypatch):
        # Every size reads its rows from one shared stream.  600
        # replications are 1, 15 and 2 row tasks at n = 5, 40 and 12, so a
        # size that took another size's rows would change its row.
        assume_cores(monkeypatch, 2)
        sizes, reps, seed = [5, 40, 12], 600, 13
        assert [len(row_tasks(n, reps)) for n in sizes] == [1, 15, 2]
        rows = ratio_table(sizes, reps, seed, workers=workers)
        assert rows == [estimate(n, reps, derive_seed(seed, n)) for n in sizes]

    @pytest.mark.parametrize("seed", [0, 7])
    def test_multi_pass_tasks_at_both_worker_counts(self, seed, monkeypatch):
        # Row tasks at n = 95 and 120 hold two sampling passes.
        assume_cores(monkeypatch, 2)
        assert [len(row_tasks(n, 40)) for n in (95, 120)] == [3, 5]
        rows = ratio_table([95, 120], 40, seed, workers=2)
        assert rows == ratio_table([95, 120], 40, seed, workers=1)

    def test_shapes_and_determinism(self):
        rows = ratio_table([3, 5], 400, 21)
        assert [r.n for r in rows] == [3, 5]
        again = ratio_table([3, 5], 400, 21)
        assert rows == again

    def test_rows_independent_of_list_order(self):
        forward = ratio_table([3, 5], 300, 9)
        backward = ratio_table([5, 3], 300, 9)
        assert forward[0] == backward[1]
        assert forward[1] == backward[0]

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ValueError):
            ratio_table([1, 5], 100, 0)


class TestKolmogorovSmirnov:
    def test_critical_value_constant(self):
        # c(0.01) = sqrt(-ln(0.005)/2) = 1.6276...
        assert ks_critical_value(10**4, 0.01) == pytest.approx(
            1.6276236 * math.sqrt(2 / 10**4), rel=1e-6
        )

    def test_symmetry_holds_for_single_cell(self):
        assert symmetry_statistic(1, 500, 3) < ks_critical_value(500, 0.01)

    def test_symmetry_meta_repetitions_single_cell(self):
        # At n=1 the two samples share one distribution exactly, so the
        # alpha=0.01 test should pass in at least 99% of meta-repetitions;
        # allow one failure among 60 fixed seeds.
        critical = ks_critical_value(200, 0.01)
        outcomes = [symmetry_statistic(1, 200, derive_seed(88, t)) < critical for t in range(60)]
        assert sum(outcomes) >= 59

    def test_symmetry_holds_small(self):
        assert symmetry_statistic(5, 1500, 42) < ks_critical_value(1500, 0.01)

    def test_location_shift_fails(self):
        # Comparing the minimum sample directly against the maximum sample
        # must fail decisively: they differ in location.
        reps = 1500
        mins = replicate_block(10, [derive_seed(4, 0, k) for k in range(reps)])[:, 1]
        maxes = replicate_block(10, [derive_seed(4, 1, k) for k in range(reps)])[:, 0]
        statistic = ks_2samp(mins, maxes, method="asymp").statistic
        assert statistic > ks_critical_value(reps, 0.01)


class TestMaxSummary:
    """The near-max m-pass accumulates the max column alone, bit for bit."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("reps", [2, 4097, 8197])
    def test_equals_estimate_max(self, reps, workers, monkeypatch):
        # 4097 and 8197 leave a one- and a five-row last block.
        assume_cores(monkeypatch, 2)
        n, seed = 8, derive_seed(23, 8, 0)
        max_only = [montecarlo._row_study(n, seed, reps, 1)]
        with montecarlo._task_pool(workers, max_only) as run:
            (blocks,) = run(replicate_block, max_only)
            summary = montecarlo._moments(blocks, 1)[0].summaries()["max_value"]
        expected = estimate(n, reps, seed, workers=workers).max_value
        assert summary.mean == expected.mean
        assert summary.mean_std_error == expected.mean_std_error
        assert summary == expected


def exponential_targets(n: int) -> dict[tuple[str, str], float]:
    """Exact moments, in kernel units, of the kernel's columns on Exp(1)
    costs: (statistic, "mean" or "variance") -> value."""
    inv_squares = [1.0 / k**2 for k in range(1, n + 1)]
    harmonic = itertools.accumulate(1.0 / k for k in range(1, n + 1))
    return {
        ("min_value", "mean"): math.fsum(inv_squares) / math.sqrt(n),
        ("greedy_value", "mean"): math.fsum(harmonic) / math.sqrt(n),
        ("greedy_value", "variance"): math.fsum(itertools.accumulate(inv_squares)) / n,
        ("field_mean", "mean"): math.sqrt(n),
        ("field_mean", "variance"): 1.0 / n,
    }


class TestExponentialOracle:
    """On Exp(1) costs the minimum, greedy and field-mean columns have exact
    laws at any n; the gate (notes/decisions.md, "An exact oracle for the
    kernel at any n") is |z| <= 4 per statistic at fixed seeds and sizes."""

    SEED = 7

    @pytest.fixture
    def exponential_costs(self, monkeypatch):
        """The sampler draws -log(u), an Exp(1) cost, where it draws ndtri(u)."""
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("pool workers inherit the swapped ndtri only when forked")

        def ndtri(u, out=None):
            return np.negative(np.log(u, out=out), out=out)

        monkeypatch.setattr(_scipy, "ndtri", lambda: ndtri)
        assume_cores(monkeypatch, 2)

    @pytest.mark.parametrize("n, reps", [(10, 20000), (39, 4000), (40, 4000), (100, 2000)])
    def test_exact_moments(self, exponential_costs, n, reps):
        # 39 and 40 lie on both sides of REDUCED_COST_N_MIN.
        report = estimate(n, reps, self.SEED, workers=2)
        assert report.greedy_violations == 0
        for (key, moment), target in exponential_targets(n).items():
            summary = getattr(report, key)
            if moment == "mean":
                z = (summary.mean - target) / summary.mean_std_error
            else:
                z = (summary.variance - target) / summary.variance_std_error
            assert abs(z) <= 4.0, (key, moment, z)

    def test_worker_invariance(self, exponential_costs):
        assert estimate(10, 20000, self.SEED, workers=1) == estimate(
            10, 20000, self.SEED, workers=2
        )
