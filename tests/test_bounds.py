import functools
import math

import pytest
from scipy.integrate import quad
from scipy.special import log_ndtr
from scipy.stats import norm

from graf import bounds
from graf.bounds import (
    expected_max_iid_gaussian,
    greedy_lower_bound,
    nearmax_regime_threshold,
    nearmax_theorem_bound,
    trivial_upper_bound_expected_max,
    upper_bound_expected_max,
    variance_lower_bound,
)

from conftest import run_fresh


def survival_form_expected_max(k: int) -> float:
    """Independent oracle: E[max] = int_0^inf (1 - Phi^k) dx - int_0^inf Phi(-x)^k dx."""
    upper, _ = quad(lambda x: 1.0 - norm.cdf(x) ** k, 0.0, 12.0, epsabs=1e-12, limit=200)
    lower, _ = quad(lambda x: norm.cdf(-x) ** k, 0.0, 12.0, epsabs=1e-12, limit=200)
    return upper - lower


def scipy_quad_expected_max(k: int) -> float:
    """``mu_k`` by ``scipy.integrate.quad`` with the arguments, integrand
    and break point that ``expected_max_iid_gaussian`` passes its
    quadrature."""
    log_k = math.log(k)

    def integrand(x: float) -> float:
        return x * math.exp(
            log_k - 0.5 * x * x - 0.5 * math.log(2.0 * math.pi) + (k - 1) * log_ndtr(x)
        )

    peak = min(11.5, math.sqrt(2.0 * log_k))
    value, abserr = quad(
        integrand, -12.0, 12.0, epsabs=1e-12, epsrel=1e-12, limit=200, points=[peak]
    )
    assert abserr <= bounds.MU_ABS_TOL
    return value


@pytest.fixture
def empty_mu_cache(monkeypatch):
    """A fresh ``mu_k`` memo, so that every ``k`` is integrated anew."""
    monkeypatch.setattr(bounds, "_mu_cache", {1: 0.0})


class TestCompiledRoutines:
    """QUADPACK's qagpe and log_ndtr come from their compiled scipy
    modules, loaded alone by the loader that also serves the solvers."""

    _PACKAGES = "('scipy.integrate', 'scipy.optimize', 'scipy.special', 'scipy.linalg')"

    def test_loads_the_files_without_scipy_packages(self):
        # A silent fallback would import scipy.integrate and with it
        # scipy.optimize, about 0.25 s.
        script = "\n".join([
            "import sys",
            "from graf import bounds",
            f"packages = {self._PACKAGES}",
            "assert not [m for m in packages if m in sys.modules], 'fell back'",
            "loaded = ('scipy.integrate._quadpack', 'scipy.special._special_ufuncs')",
            "assert all(m in sys.modules for m in loaded), 'the loaded files stay'",
            "bounds.greedy_lower_bound(20)",
            "assert not [m for m in packages if m in sys.modules], 'loaded while computing'",
            # A package imported later reuses the loaded files but does not
            # bind them as its attributes, unless its own code imports them so.
            "import scipy.special",
            "from scipy.integrate import _quadpack",
            "assert bounds.log_ndtr is scipy.special.log_ndtr",
            "assert bounds.quad.args[0] is _quadpack._qagpe",
        ])
        result = run_fresh(script)
        assert result.returncode == 0, result.stderr

    def test_missing_files_fall_back(self, tmp_path):
        script = "\n".join([
            "import sys",
            "from graf import solvers",
            f"solvers._extension_path = lambda module: {str(tmp_path / 'missing.so')!r}",
            "from graf import bounds",
            "assert 'scipy.special' in sys.modules and 'scipy.integrate' in sys.modules",
            "import scipy.special, scipy.integrate._quadpack",
            "assert bounds.log_ndtr is scipy.special.log_ndtr",
            "assert bounds.quad.args[0] is scipy.integrate._quadpack._qagpe",
            "print(bounds.expected_max_iid_gaussian(9).hex())",
        ])
        result = run_fresh(script)
        assert result.returncode == 0, result.stderr
        assert float.fromhex(result.stdout.strip()) == expected_max_iid_gaussian(9)

    def test_takes_the_loaded_packages(self):
        script = "\n".join([
            "import scipy.integrate, scipy.special",
            "from graf import solvers",
            "def not_called(name, path):",
            "    raise AssertionError(f'loaded {name} from its file, not its package')",
            "solvers._load_extension = not_called",
            "from graf import bounds",
            "assert bounds.log_ndtr is scipy.special.log_ndtr",
            "assert bounds.quad.args[0] is scipy.integrate._quadpack._qagpe",
        ])
        result = run_fresh(script)
        assert result.returncode == 0, result.stderr


class TestQuadrature:
    """``bounds.quad`` is ``scipy.integrate.quad``'s own call to QUADPACK."""

    @pytest.mark.parametrize(
        "ks",
        [range(2, 301), [*range(301, 4096, 199), 4096]],
        ids=["2-300", "301-4096"],
    )
    def test_matches_scipy_quad_bit_for_bit(self, empty_mu_cache, ks):
        for k in ks:
            assert expected_max_iid_gaussian(k) == scipy_quad_expected_max(k), k

    def test_nonzero_ier_raises(self, monkeypatch, empty_mu_cache):
        def round_off(*args):
            return 1.0, 0.0, 2

        monkeypatch.setattr(bounds, "quad", functools.partial(bounds.quad.func, round_off))
        with pytest.raises(ArithmeticError, match="ier=2"):
            expected_max_iid_gaussian(5)
        assert 5 not in bounds._mu_cache

    def test_one_quadrature_per_uncached_k(self, monkeypatch, empty_mu_cache):
        calls = []
        compiled = bounds.quad

        def counting(*args, **kwargs):
            calls.append(args)
            return compiled(*args, **kwargs)

        monkeypatch.setattr(bounds, "quad", counting)
        greedy_lower_bound(50)
        assert len(calls) == 49
        greedy_lower_bound(60)
        expected_max_iid_gaussian(30)
        assert len(calls) == 59

    def test_matches_scipy_quad_on_other_points(self):
        # The break points scipy.integrate.quad keeps: unique, strictly
        # inside (a, b).
        for points in ([0.5], [0.5, 0.5, -1.0], [-2.0, 0.0, 2.0], [1.0, 3.0]):
            expected = quad(
                math.cos, -2.0, 2.0, epsabs=1e-12, epsrel=1e-12, limit=50, points=points
            )
            assert bounds.quad(
                math.cos, -2.0, 2.0, epsabs=1e-12, epsrel=1e-12, limit=50, points=points
            ) == expected


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
