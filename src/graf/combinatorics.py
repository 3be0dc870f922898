"""Exact permutation counting: rencontres numbers, correlation balls.

Counts permutations by their number of agreements with a fixed reference:
exactly ``k`` agreements occur in ``C(n, k) * D_{n-k}`` of them, where
``D_m`` counts derangements, and their proportion tends to
``exp(-1)/k!``.  Cumulating the counts above a correlation threshold gives
the ball size ``V(n, delta)``, the number of permutations whose field
correlation with a reference exceeds ``1 - delta``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

#: Largest size handled in exact integer mode.  20! still fits a 64-bit
#: word, the crossover every consumer of these counts is documented against.
EXACT_N_MAX = 20


def log_factorial(n: int) -> float:
    """Natural log of ``n!`` via the log-gamma function (pinned method)."""
    if n < 0:
        raise ValueError("factorial argument must be non-negative")
    return math.lgamma(n + 1)


@lru_cache(maxsize=None)
def derangement_count(m: int) -> int:
    """Number of permutations of ``m`` items with no fixed point.

    Recurrence ``D_m = (m-1) (D_{m-1} + D_{m-2})`` with ``D_0 = 1, D_1 = 0``.
    """
    if m < 0:
        raise ValueError("derangement size must be non-negative")
    if m == 0:
        return 1
    if m == 1:
        return 0
    return (m - 1) * (derangement_count(m - 1) + derangement_count(m - 2))


def rencontres_count(n: int, k: int) -> int:
    """Exact number of permutations of ``n`` items with exactly ``k`` fixed
    points relative to any reference: ``C(n, k) * D_{n-k}``."""
    if n < 1:
        raise ValueError("size must be at least 1")
    if not 0 <= k <= n:
        raise ValueError(f"agreement count {k} outside 0..{n}")
    if n > EXACT_N_MAX:
        raise ValueError(f"exact counts are capped at n={EXACT_N_MAX}")
    return math.comb(n, k) * derangement_count(n - k)


def in_correlation_ball(k: int, n: int, delta: float) -> bool:
    """Whether agreement count ``k`` means correlation strictly above
    ``1 - delta``.

    The comparison ``k/n > 1 - delta`` is made in exact rational arithmetic,
    treating the binary value of ``delta`` as exact, so enumeration counts
    and closed-form counts can never disagree at a boundary.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return Fraction(k, n) > 1 - Fraction(delta)


def ball_size(n: int, delta: float) -> int:
    """Exact number of permutations with correlation above ``1 - delta``
    to a fixed reference; independent of the reference.

    Sums the rencontres counts over agreement counts ``k`` in ``1..n`` with
    ``k > (1 - delta) n`` (strict, boundary excluded).
    """
    if n < 1:
        raise ValueError("size must be at least 1")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if n > EXACT_N_MAX:
        raise ValueError(
            f"exact ball sizes are capped at n={EXACT_N_MAX}; "
            "use ball_size_upper_bound for larger sizes"
        )
    return sum(
        rencontres_count(n, k) for k in range(1, n + 1) if in_correlation_ball(k, n, delta)
    )


def ball_size_upper_bound(n: int, delta: float) -> float:
    """The bound ``n**(delta*n)``, evaluated as ``exp(delta*n*log(n))``;
    ``inf`` where that exceeds the largest float."""
    if n < 1:
        raise ValueError("size must be at least 1")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    try:
        return math.exp(delta * n * math.log(n))
    except OverflowError:
        return math.inf
