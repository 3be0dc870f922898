"""Closed-form bounds for the field maximum and near-maximal sets.

``mu_k`` denotes the expected maximum of ``k`` independent standard
Gaussians, computed by adaptive quadrature.  The remaining quantities are
elementary transforms of ``log(n!)``: the mean upper bound
``sqrt(2 (1 - 1/n) log(n!))``, the greedy lower bound
``n**-0.5 * sum_{i<=n} mu_i``, the variance lower bound ``1/n``, and the
two near-maximal-set bound shapes with caller-supplied constants.
"""

from __future__ import annotations

import math

from scipy.integrate import quad
from scipy.special import log_ndtr

from graf.combinatorics import log_factorial

_LOG_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)

#: Integration window: the standard normal density is below 1e-31 outside.
_QUAD_RANGE = 12.0
_QUAD_TOL = 1e-12
#: Contract accuracy for mu_k.
MU_ABS_TOL = 1e-10

_mu_cache: dict[int, float] = {1: 0.0}


def expected_max_iid_gaussian(k: int) -> float:
    """Expected maximum ``mu_k`` of ``k`` i.i.d. standard Gaussians.

    Evaluates ``integral of x * k * phi(x) * Phi(x)**(k-1)`` over
    ``[-12, 12]`` with adaptive quadrature to absolute tolerance 1e-10.
    Values are memoized.
    """
    if k < 1:
        raise ValueError("sample count must be at least 1")
    if k in _mu_cache:
        return _mu_cache[k]

    log_k = math.log(k)

    def integrand(x: float) -> float:
        return x * math.exp(
            log_k - 0.5 * x * x - _LOG_SQRT_TWO_PI + (k - 1) * log_ndtr(x)
        )

    # The integrand peaks near sqrt(2 log k); hint the subdivision there.
    peak = min(_QUAD_RANGE - 0.5, math.sqrt(2.0 * log_k)) if k > 1 else 0.0
    value, abserr = quad(
        integrand,
        -_QUAD_RANGE,
        _QUAD_RANGE,
        epsabs=_QUAD_TOL,
        epsrel=_QUAD_TOL,
        limit=200,
        points=[peak],
    )
    if abserr > MU_ABS_TOL:
        raise ArithmeticError(
            f"quadrature for mu_{k} did not converge: estimated error {abserr:.3e}"
        )
    _mu_cache[k] = float(value)
    return _mu_cache[k]


def upper_bound_expected_max(n: int) -> float:
    """Mean upper bound ``sqrt(2 (1 - 1/n) log(n!))`` for the field maximum."""
    if n < 1:
        raise ValueError("size must be at least 1")
    return math.sqrt(2.0 * (1.0 - 1.0 / n) * log_factorial(n))


def trivial_upper_bound_expected_max(n: int) -> float:
    """The generic bound ``sqrt(2 log(n!))`` for any unit-variance field."""
    if n < 1:
        raise ValueError("size must be at least 1")
    return math.sqrt(2.0 * log_factorial(n))


def greedy_lower_bound(n: int) -> float:
    """Expected greedy value ``n**-0.5 * sum_{i=1..n} mu_i``.

    Lower-bounds the expected field maximum; the row-by-row greedy
    construction attains it in expectation.
    """
    if n < 1:
        raise ValueError("size must be at least 1")
    return math.fsum(expected_max_iid_gaussian(i) for i in range(1, n + 1)) / math.sqrt(n)


def variance_lower_bound(n: int) -> float:
    """Variance lower bound ``1/n`` (the variance of the field mean)."""
    if n < 1:
        raise ValueError("size must be at least 1")
    return 1.0 / n


def nearmax_regime_threshold(n: int) -> float:
    """Regime boundary ``(2 n log n)**-0.5`` for the near-maximal-set bound."""
    if n < 2:
        raise ValueError("size must be at least 2")
    return 1.0 / math.sqrt(2.0 * n * math.log(n))


def nearmax_theorem_bound(
    n: int, eps: float, c_small: float = 1.0, c_large: float = 1.0
) -> float:
    """Bound on the expected log-size of the near-maximal set.

    ``c_small * (n log n)**(3/4)`` in the small-epsilon regime, ``eps <=
    nearmax_regime_threshold(n)``, and ``c_large * sqrt(eps) * n log n``
    in the large-epsilon regime, with the caller's constants.

    The bound is asymptotic and its constants are unspecified universal
    ones, so no finite-``n`` value follows from it.  Divided by
    ``log(n!) ~ n log n`` it sends the dimension to zero only as epsilon
    goes to zero; at a fixed epsilon it only caps the dimension near
    ``c_large * sqrt(eps)`` and does not promise that it falls with ``n``.
    """
    if n < 2:
        raise ValueError("size must be at least 2")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {eps}")
    if not (0.0 < c_small < math.inf and 0.0 < c_large < math.inf):
        raise ValueError("bound constants must be positive and finite")
    nlogn = n * math.log(n)
    if eps <= nearmax_regime_threshold(n):
        return c_small * nlogn**0.75
    return c_large * math.sqrt(eps) * nlogn
