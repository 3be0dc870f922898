import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from graf import enumerator, montecarlo
from graf._permutations import perm_table
from graf.combinatorics import RencontresTable, ball_size, ball_size_upper_bound
from graf.enumerator import (
    correlation_histogram_exact,
    enumerate_field,
    enumerated_field_mean,
    mean_correlation_exhaustive,
    near_maximal_set,
    nearmax_table,
    verify_ball_size,
)
from graf.field import CostMatrix, field_value, sample_cost_matrix
from graf.solvers import solve_max_bruteforce, solve_max_exact

from conftest import random_permutation


class TestEnumerateField:
    def test_two_by_two(self):
        c = CostMatrix([[1.0, 2.0], [3.0, 4.0]])
        perms, values = enumerate_field(c)
        root2 = math.sqrt(2)
        assert perms.tolist() == [[0, 1], [1, 0]]
        assert values.tolist() == [5.0 / root2, 5.0 / root2]

    def test_lexicographic_order_and_count(self):
        c = sample_cost_matrix(4, 3)
        perms, values = enumerate_field(c)
        assert perms.shape == (24, 4) and values.shape == (24,)
        mappings = [tuple(row) for row in perms.tolist()]
        assert mappings == sorted(mappings)
        assert mappings[0] == (0, 1, 2, 3)
        assert not perms.flags.writeable

    def test_values_match_direct_evaluation(self):
        c = sample_cost_matrix(5, 11)
        perms, values = enumerate_field(c)
        for row, value in zip(perms, values):
            assert value == pytest.approx(field_value(c, row), rel=1e-12)

    def test_max_matches_bruteforce(self):
        c = sample_cost_matrix(3, 8)
        best = enumerate_field(c)[1].max()
        assert best == pytest.approx(solve_max_bruteforce(c).field_value, abs=1e-12)
        assert best == pytest.approx(solve_max_exact(c).field_value, abs=1e-9)

    def test_constant_matrix(self):
        c = CostMatrix(np.ones((4, 4)))
        assert all(value == pytest.approx(2.0, rel=1e-14) for value in enumerate_field(c)[1])

    def test_cap(self):
        with pytest.raises(ValueError):
            enumerate_field(CostMatrix(np.zeros((10, 10))))


class TestPermTable:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_itertools(self, n):
        table = perm_table(n)
        expected = np.array(list(itertools.permutations(range(n))), dtype=np.int8)
        assert table.dtype == np.int8 and not table.flags.writeable
        assert np.array_equal(table, expected.reshape(math.factorial(n), n))


class TestEnumeratedFieldMean:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_closed_form(self, seed):
        c = sample_cost_matrix(6, seed)
        closed = float(c.entries.sum()) / (6 * math.sqrt(6))
        assert enumerated_field_mean(c) == pytest.approx(closed, abs=1e-10)


class TestNearMaximalSet:
    def test_counts_strictly_above_threshold(self):
        c = sample_cost_matrix(4, 5)
        values = sorted(enumerate_field(c)[1])
        m_used = 1.0
        report = near_maximal_set(c, 0.25, m_used)
        oracle = sum(1 for v in values if v > 0.75 * m_used)
        assert report.set_size == oracle
        assert report.empty_flag == (oracle == 0)

    def test_monotone_in_eps(self):
        c = sample_cost_matrix(5, 9)
        m_used = 2.0
        sizes = [near_maximal_set(c, eps, m_used).set_size for eps in (0.1, 0.3, 0.5, 0.9)]
        assert sizes == sorted(sizes)

    def test_monotone_in_m_used(self):
        c = sample_cost_matrix(5, 10)
        sizes = [near_maximal_set(c, 0.2, m).set_size for m in (0.5, 1.0, 2.0, 3.0)]
        assert sizes == sorted(sizes, reverse=True)

    def test_zero_plugin_counts_positive_values(self):
        c = sample_cost_matrix(4, 12)
        report = near_maximal_set(c, 0.5, 0.0)
        oracle = sum(1 for v in enumerate_field(c)[1] if v > 0.0)
        assert report.set_size == oracle

    def test_dimension_range(self):
        c = sample_cost_matrix(5, 3)
        report = near_maximal_set(c, 0.9, 1.0)
        assert not report.empty_flag
        assert report.dimension is not None
        assert 0.0 <= report.dimension <= 1.0
        assert report.set_size <= math.factorial(5)

    def test_empty_set_has_no_dimension(self):
        c = sample_cost_matrix(3, 1)
        report = near_maximal_set(c, 0.01, 100.0)
        assert report.empty_flag and report.set_size == 0
        assert report.dimension is None


class TestCorrelationHistogram:
    def test_small_tables(self):
        assert correlation_histogram_exact(2).counts == (1, 0, 1)
        assert correlation_histogram_exact(4).counts == (9, 8, 6, 0, 1)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_closed_form(self, n):
        assert correlation_histogram_exact(n).counts == RencontresTable.for_size(n).counts

    def test_reference_independent(self, rng):
        for n in (3, 5, 7):
            base = correlation_histogram_exact(n)
            for _ in range(3):
                ref = random_permutation(rng, n)
                assert correlation_histogram_exact(n, ref).counts == base.counts

    @pytest.mark.parametrize("reference", [[0, 1], [0, 0, 1], [0, 1, 3]])
    def test_rejects_bad_reference(self, reference):
        with pytest.raises(ValueError, match="not an assignment"):
            correlation_histogram_exact(3, reference)

    def test_counts_partition_group(self):
        for n in (2, 5, 8):
            assert sum(correlation_histogram_exact(n).counts) == math.factorial(n)

    def test_cap(self):
        with pytest.raises(ValueError):
            correlation_histogram_exact(9)


class TestVerifyBallSize:
    def test_examples(self):
        assert verify_ball_size(4, 0.3).expected == 1
        assert verify_ball_size(5, 0.999).expected == 76

    @pytest.mark.parametrize("n", range(2, 9))
    def test_grid_passes(self, n):
        for tenths in range(1, 10):
            check = verify_ball_size(n, tenths / 10, seed=1)
            assert check.passed, check
            assert check.counts == (check.expected,) * 3
            assert check.expected <= check.upper_bound

    def test_bound_column_matches_module(self):
        check = verify_ball_size(6, 0.4)
        assert check.expected == ball_size(6, 0.4)
        assert check.upper_bound == ball_size_upper_bound(6, 0.4)


class TestMeanCorrelationExhaustive:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_exact_value(self, n):
        assert mean_correlation_exhaustive(n) == Fraction(1, n)

    def test_largest_size(self):
        assert mean_correlation_exhaustive(7) == Fraction(1, 7)


class TestDimensionStudy:
    def test_shapes_and_determinism(self):
        rows = nearmax_table([3, 4], [0.2], replications=60, master_seed=5, m_reps=400)
        assert [(r.n, r.epsilon) for r in rows] == [(3, 0.2), (4, 0.2)]
        again = nearmax_table([3, 4], [0.2], replications=60, master_seed=5, m_reps=400)
        assert rows == again
        for row in rows:
            assert 0.0 <= row.empty_fraction <= 1.0
            assert row.bound_small > 0 and row.bound_large > 0
            assert row.m_std_error > 0

    def test_sensitivity_adds_shifted_rows(self):
        rows = nearmax_table(
            [3], [0.2, 0.4], replications=40, master_seed=5, m_reps=300, sensitivity=True
        )
        assert len(rows) == 6
        shifts = [r.m_shift_se for r in rows]
        assert shifts == [0.0, -2.0, 2.0, 0.0, -2.0, 2.0]
        base, low, high = rows[0], rows[1], rows[2]
        assert low.m_used < base.m_used < high.m_used
        # Lower plug-in mean => lower threshold => larger sets.
        assert low.dimension >= base.dimension >= high.dimension

    def test_generous_eps_gives_dimension_near_one(self):
        rows = nearmax_table([4], [0.9], replications=50, master_seed=8, m_reps=300)
        assert rows[0].empty_fraction <= 0.1
        assert rows[0].dimension > 0.6

    def test_same_matrices_across_eps(self):
        table = nearmax_table([4], [0.1, 0.5], replications=50, master_seed=3, m_reps=300)
        single = nearmax_table([4], [0.5], replications=50, master_seed=3, m_reps=300)
        assert table[1] == single[0]

    def test_worker_invariance_across_tasks(self, monkeypatch):
        # Counting tasks of 4 matrices at n = 4 and 1 at n = 5, on a real pool.
        monkeypatch.setattr(enumerator, "BLOCK_ROWS", 100)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        args = ([4, 5], [0.3, 0.6], 50, 17)
        serial = nearmax_table(*args, m_reps=300, workers=1)
        assert nearmax_table(*args, m_reps=300, workers=2) == serial

    def test_one_pool_per_call(self, fake_pool, monkeypatch):
        monkeypatch.setattr(montecarlo, "BLOCK_REPLICATIONS", 100)
        rows = nearmax_table([3, 4], [0.2], 60, 5, m_reps=400, workers=2)
        assert fake_pool.sizes == [2]
        assert rows == nearmax_table([3, 4], [0.2], 60, 5, m_reps=400, workers=1)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            nearmax_table([1], [0.2], 10, 0, m_reps=100)
        with pytest.raises(ValueError):
            nearmax_table([4], [1.2], 10, 0, m_reps=100)
        with pytest.raises(ValueError):
            nearmax_table([4], [], 10, 0, m_reps=100)

    @pytest.mark.parametrize(
        "replications, m_reps, message",
        [(1, 100, "need at least 2 replications"), (10, 1, "m_reps must be at least 2, got 1")],
    )
    def test_replication_errors_name_the_argument(self, replications, m_reps, message):
        with pytest.raises(ValueError, match=message):
            nearmax_table([4], [0.2], replications, 0, m_reps=m_reps)
