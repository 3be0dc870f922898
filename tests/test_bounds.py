import math

import pytest
from scipy.integrate import quad
from scipy.stats import norm

from graf.bounds import (
    expected_max_iid_gaussian,
    greedy_lower_bound,
    nearmax_regime_threshold,
    nearmax_theorem_bound,
    trivial_upper_bound_expected_max,
    upper_bound_expected_max,
    variance_lower_bound,
)


def survival_form_expected_max(k: int) -> float:
    """Independent oracle: E[max] = int_0^inf (1 - Phi^k) dx - int_0^inf Phi(-x)^k dx."""
    upper, _ = quad(lambda x: 1.0 - norm.cdf(x) ** k, 0.0, 12.0, epsabs=1e-12, limit=200)
    lower, _ = quad(lambda x: norm.cdf(-x) ** k, 0.0, 12.0, epsabs=1e-12, limit=200)
    return upper - lower


class TestExpectedMax:
    def test_single_sample_is_centered(self):
        assert abs(expected_max_iid_gaussian(1)) < 1e-12

    def test_closed_form_pair(self):
        assert expected_max_iid_gaussian(2) == pytest.approx(1 / math.sqrt(math.pi), abs=1e-10)

    def test_closed_form_triple(self):
        assert expected_max_iid_gaussian(3) == pytest.approx(
            3 / (2 * math.sqrt(math.pi)), abs=1e-10
        )

    @pytest.mark.parametrize("k", [5, 50, 1000])
    def test_against_survival_oracle(self, k):
        assert expected_max_iid_gaussian(k) == pytest.approx(
            survival_form_expected_max(k), abs=1e-8
        )

    def test_monotone_in_k(self):
        grid = [1, 2, 3, 5, 10, 100, 1000, 10**4, 10**5, 10**6]
        values = [expected_max_iid_gaussian(k) for k in grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("k", [10**3, 10**4, 10**5, 10**6])
    def test_asymptotic_envelope(self, k):
        assert 0.8 < expected_max_iid_gaussian(k) / math.sqrt(2 * math.log(k)) < 1.05

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            expected_max_iid_gaussian(0)


class TestMeanBounds:
    def test_upper_bound_examples(self):
        assert upper_bound_expected_max(1) == 0.0
        assert upper_bound_expected_max(2) == pytest.approx(math.sqrt(math.log(2)), rel=1e-15)
        assert upper_bound_expected_max(10) < trivial_upper_bound_expected_max(10)

    @pytest.mark.parametrize("n", [2, 5, 17, 100])
    def test_upper_below_trivial(self, n):
        assert upper_bound_expected_max(n) < trivial_upper_bound_expected_max(n)

    def test_greedy_lower_examples(self):
        assert greedy_lower_bound(1) == 0.0
        assert greedy_lower_bound(2) == pytest.approx(
            (1 / math.sqrt(math.pi)) / math.sqrt(2), abs=1e-10
        )

    def test_greedy_ratio_grows_and_crosses_half(self):
        ratios = [
            greedy_lower_bound(n) / trivial_upper_bound_expected_max(n)
            for n in (10, 100, 1000, 10**4)
        ]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] > 0.5

    @pytest.mark.parametrize("n", [2, 3, 10, 50])
    def test_rows_are_ordered(self, n):
        assert (
            greedy_lower_bound(n)
            <= upper_bound_expected_max(n)
            <= trivial_upper_bound_expected_max(n)
        )
        assert variance_lower_bound(n) == 1.0 / n

    def test_variance_lower_examples(self):
        assert variance_lower_bound(10) == 0.1
        assert variance_lower_bound(1) == 1.0
        assert variance_lower_bound(4) == 0.25


class TestNearMaxBound:
    def test_threshold_example(self):
        assert nearmax_regime_threshold(100) == pytest.approx(0.03295, abs=1e-4)
        small = (100 * math.log(100)) ** 0.75
        assert nearmax_theorem_bound(100, 1e-4, c_small=2.0) == pytest.approx(2.0 * small)

    def test_large_regime_value(self):
        bound = nearmax_theorem_bound(100, 0.5, c_small=2.0, c_large=1.0)
        assert bound == pytest.approx(math.sqrt(0.5) * 100 * math.log(100), rel=1e-12)
        assert bound == pytest.approx(325.6, abs=0.2)

    def test_boundary_is_small_regime(self):
        n = 50
        eps = nearmax_regime_threshold(n)
        small = (n * math.log(n)) ** 0.75
        assert nearmax_theorem_bound(n, eps, c_small=2.0) == pytest.approx(2.0 * small)
        above = math.nextafter(eps, 1.0)
        assert nearmax_theorem_bound(n, above, c_small=2.0) == pytest.approx(
            math.sqrt(above) * n * math.log(n)
        )

    def test_monotone_in_eps_within_large_regime(self):
        n = 30
        values = [nearmax_theorem_bound(n, e) for e in (0.2, 0.4, 0.6, 0.8)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            nearmax_theorem_bound(1, 0.5)
        with pytest.raises(ValueError):
            nearmax_theorem_bound(10, 1.5)
        with pytest.raises(ValueError):
            nearmax_theorem_bound(10, 0.5, c_small=0.0)
        for bad in (math.nan, math.inf):
            for constants in ({"c_small": bad}, {"c_large": bad}):
                with pytest.raises(ValueError, match="bound constants must be positive"):
                    nearmax_theorem_bound(10, 0.5, **constants)
