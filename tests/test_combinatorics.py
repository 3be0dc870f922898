import math
from collections import Counter
from fractions import Fraction

import pytest

from graf.combinatorics import (
    ball_size,
    ball_size_upper_bound,
    derangement_count,
    in_correlation_ball,
    log_factorial,
    rencontres_count,
)

from conftest import all_permutations


def brute_agreement_counts(n: int) -> list[int]:
    """Independent oracle: histogram of fixed points over the whole group."""
    counts = Counter(
        sum(1 for i, v in enumerate(u) if v == i) for u in all_permutations(n)
    )
    return [counts.get(k, 0) for k in range(n + 1)]


class TestLogFactorial:
    def test_base_cases(self):
        assert log_factorial(0) == 0.0
        assert log_factorial(1) == 0.0
        assert log_factorial(5) == pytest.approx(math.log(120), rel=1e-15)

    @pytest.mark.parametrize("n", [10, 100, 1000, 20000])
    def test_matches_cumulative_sum(self, n):
        oracle = math.fsum(math.log(k) for k in range(2, n + 1))
        assert log_factorial(n) == pytest.approx(oracle, rel=1e-13)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            log_factorial(-1)


class TestDerangements:
    def test_known_values(self):
        assert [derangement_count(m) for m in range(8)] == [1, 0, 1, 2, 9, 44, 265, 1854]


class TestRencontresCount:
    def test_examples(self):
        assert rencontres_count(4, 0) == 9
        assert rencontres_count(4, 1) == 8
        assert rencontres_count(4, 4) == 1
        assert rencontres_count(7, 7) == 1

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_exhaustive_histogram(self, n):
        assert [rencontres_count(n, k) for k in range(n + 1)] == brute_agreement_counts(n)

    @pytest.mark.parametrize("n", list(range(1, 21)))
    def test_counts_partition_the_group(self, n):
        assert sum(rencontres_count(n, k) for k in range(n + 1)) == math.factorial(n)

    def test_near_full_agreement_impossible(self):
        for n in range(2, 10):
            assert rencontres_count(n, n - 1) == 0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            rencontres_count(4, 5)
        with pytest.raises(ValueError):
            rencontres_count(21, 0)


class TestRencontresProportion:
    # Proportions of the exact counts, rencontres_count(n, k) / n!.
    def test_full_agreement(self):
        for n in (1, 5, 12):
            assert rencontres_count(n, n) / math.factorial(n) == pytest.approx(
                1 / math.factorial(n), rel=1e-15
            )

    def test_example_third(self):
        assert rencontres_count(4, 1) / math.factorial(4) == pytest.approx(1 / 3, rel=1e-15)

    def test_limit_is_poissonian(self):
        # Alternating series remainder: at n=20 the proportion is within
        # 1/(n-k+1)! < 1e-12 of exp(-1)/k! for k <= 5.
        for k in range(6):
            assert rencontres_count(20, k) / math.factorial(20) == pytest.approx(
                math.exp(-1) / math.factorial(k), abs=1e-12
            )


class TestBallSize:
    def test_examples(self):
        assert ball_size(4, 0.3) == 1
        assert ball_size(5, 0.999) == 120 - 44

    def test_always_contains_the_reference(self):
        for n in (1, 3, 8, 20):
            assert ball_size(n, 1e-6) >= 1

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_exhaustive_count(self, n):
        for tenths in range(1, 10):
            delta = tenths / 10
            oracle = sum(
                1
                for u in all_permutations(n)
                if in_correlation_ball(sum(1 for i, v in enumerate(u) if v == i), n, delta)
            )
            assert ball_size(n, delta) == oracle

    def test_monotone_in_delta(self):
        for n in (4, 9, 15):
            sizes = [ball_size(n, d / 20) for d in range(1, 20)]
            assert sizes == sorted(sizes)

    @pytest.mark.parametrize("n", [1, 2, 5, 10, 15, 20])
    def test_bounded_by_power(self, n):
        for tenths in range(1, 10):
            delta = tenths / 10
            assert ball_size(n, delta) <= ball_size_upper_bound(n, delta)

    def test_large_n_redirects(self):
        with pytest.raises(ValueError, match="ball_size_upper_bound"):
            ball_size(21, 0.5)

    def test_upper_bound_examples(self):
        assert ball_size_upper_bound(10, 0.5) == pytest.approx(10**5, rel=1e-12)
        assert ball_size_upper_bound(1, 0.5) == 1.0

    def test_upper_bound_beyond_float_range_is_inf(self):
        # 0.9 * 200 * ln 200 = 953.7 > ln(largest float) = 709.78.
        assert ball_size_upper_bound(200, 0.9) == math.inf
        assert ball_size_upper_bound(150, 0.9) == math.exp(0.9 * 150 * math.log(150))

    def test_rejects_bad_delta(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                ball_size(4, bad)


class TestAlternatingTail:
    """The fraction of permutations with at least one agreement,
    ``1 - D_n / n!``, is the alternating tail ``sum_{s=1..n} (-1)**(s-1) / s!``."""

    @staticmethod
    def agreeing_fraction(n: int) -> float:
        return 1 - derangement_count(n) / math.factorial(n)

    def test_small_values(self):
        assert self.agreeing_fraction(1) == 1.0
        assert self.agreeing_fraction(2) == 0.5

    @pytest.mark.parametrize("n", [3, 10, 17])
    def test_equals_double_sum(self, n):
        double = math.fsum(
            (1 / math.factorial(k)) * math.fsum((-1) ** l / math.factorial(l) for l in range(n - k + 1))
            for k in range(1, n + 1)
        )
        assert self.agreeing_fraction(n) == pytest.approx(double, abs=1e-14)

    def test_bounded_and_convergent(self):
        for n in range(1, 30):
            tail = math.fsum((-1) ** (s - 1) / math.factorial(s) for s in range(1, n + 1))
            assert 0.0 < self.agreeing_fraction(n) <= 1.0
            assert self.agreeing_fraction(n) == pytest.approx(tail, abs=1e-15)
        assert self.agreeing_fraction(20) == pytest.approx(1 - math.exp(-1), abs=1e-12)


class TestMeanCorrelation:
    def test_matches_exhaustive_average(self):
        # Direct 24^2-pair average at n=4.
        n = 4
        total = Fraction(0)
        perms = list(all_permutations(n))
        for u in perms:
            for v in perms:
                agree = sum(1 for a, b in zip(u, v) if a == b)
                total += Fraction(agree, n)
        assert total / len(perms) ** 2 == Fraction(1, n)


class TestRencontresTable:
    """The closed-form agreement histogram that ``graf verify`` compares
    enumeration against."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_for_size_is_valid(self, n):
        table = [rencontres_count(n, k) for k in range(n + 1)]
        assert min(table) >= 0
        assert sum(table) == math.factorial(n)
        assert table[n] == 1  # only the reference agrees everywhere
        if n >= 2:
            assert table[n - 1] == 0
