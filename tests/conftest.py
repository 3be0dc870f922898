import gc
import itertools
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import ks_2samp

import graf
from graf import montecarlo
from graf._permutations import BLOCK_ROWS, perm_table
from graf.field import CostMatrix
from graf.montecarlo import StatSummary, derive_seed, replicate_block
from graf.serialize import fmt


@pytest.fixture(autouse=True)
def _unfreeze():
    """graf.cli.main freezes every object its process holds; unfreeze them
    after each test, so the suite's own garbage stays collectable."""
    yield
    gc.unfreeze()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def fake_pool(monkeypatch):
    """Replace the process pool with an in-process fake on a 2-core machine.

    The returned record holds the size of each pool constructed and the
    most tasks the pool ever held submitted and not yet consumed.  No
    process is started.
    """
    record = SimpleNamespace(sizes=[], unfinished=0, peak=0)

    class RecordingPool:
        def __init__(self, max_workers):
            record.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            record.unfinished += len(items)
            record.peak = max(record.peak, record.unfinished)

            def results():
                for item in items:
                    record.unfinished -= 1
                    yield fn(item)

            return results()

    monkeypatch.setattr("concurrent.futures.process.ProcessPoolExecutor", RecordingPool)
    assume_cores(monkeypatch, 2)
    return record


def assume_cores(monkeypatch, count: int) -> None:
    """Let the task pool see ``count`` CPUs this process may run on."""
    monkeypatch.setattr(
        montecarlo.os, "sched_getaffinity", lambda pid: set(range(count)), raising=False
    )


def run_fresh(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``script`` with ``args`` in a fresh interpreter that imports this
    checkout's graf."""
    src = str(Path(graf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


def random_permutation(rng: np.random.Generator, n: int) -> np.ndarray:
    """A uniform assignment as a 0-based column array."""
    return rng.permutation(n)


def random_matrix(rng: np.random.Generator, n: int) -> CostMatrix:
    return CostMatrix(rng.standard_normal((n, n)))


def greedy_oracle(entries: np.ndarray) -> np.ndarray:
    """Greedy columns of one ``(n, n)`` matrix, a row at a time: row ``i``
    takes its best still-unused column, the smallest under ties."""
    available = list(range(len(entries)))
    columns = np.empty(len(entries), dtype=np.intp)
    for i, row in enumerate(entries):
        # argmax picks the first maximum; available stays sorted ascending.
        columns[i] = available.pop(int(np.argmax(row[available])))
    return columns


def all_permutations(n: int):
    """Independent tiny-scale walk of the group (not the package's table),
    as 0-based column tuples."""
    yield from itertools.permutations(range(n))


def fmt_column_oracle(values: np.ndarray) -> list[str]:
    """``[fmt(v) for v in values]`` in one ``%``-formatting pass, the
    oracle for ``serialize.fmt_codes``.

    ``%.17g`` prints what ``fmt`` prints except on integral values, where
    it prints no ``.``; only those go through ``fmt`` again.
    """
    values = np.asarray(values, dtype=np.float64)
    texts = ("%.17g\n" * len(values) % tuple(values.tolist())).split("\n")
    texts.pop()
    with np.errstate(invalid="ignore"):  # trunc of a signalling NaN
        integral = values == np.trunc(values)
    for i in np.flatnonzero(integral).tolist():
        texts[i] = fmt(values[i])
    return texts


def raw_sum_blocks_oracle(entries: np.ndarray):
    """``raw_sum_blocks`` by gathering all ``n`` entries of every
    permutation and summing each gathered row with numpy: the same
    ``(offset, rows, sums)`` blocks, the oracle for the walk's bits."""
    n = entries.shape[0]
    table = perm_table(n)
    positions = np.arange(n)
    for start in range(0, table.shape[0], BLOCK_ROWS):
        rows = table[start : start + BLOCK_ROWS]
        yield start, rows, entries[positions, rows].sum(axis=1)


def adversarial_entries(kind: str, n: int) -> np.ndarray:
    """An ``(n, n)`` matrix whose raw sums are hard to get bit for bit."""
    rng = np.random.default_rng(1000 * n + len(kind))
    if kind == "gaussian":
        return rng.standard_normal((n, n))
    if kind == "integer":  # many tied sums
        return rng.integers(-3, 4, size=(n, n)).astype(np.float64)
    if kind == "scaled":  # each entry times 1e8 or 1e-8: roundoff depends on the order
        return rng.standard_normal((n, n)) * 10.0 ** rng.choice([-8, 8], size=(n, n))
    if kind == "negative zeros":  # every sum is +0.0, from -0.0 terms only
        return np.full((n, n), -0.0)
    # Signed zeros: numpy sums a row of -0.0 to +0.0.
    return rng.choice([-0.0, 0.0], size=(n, n))


# The paper's max/-min symmetry (c -> -c), a self-check of the solvers.


def ks_critical_value(reps: int, alpha: float) -> float:
    """Smirnov's asymptotic critical value at level ``alpha`` for two KS
    samples of ``reps`` each: ``c(alpha) * sqrt(2 / reps)`` with
    ``c(alpha) = sqrt(-ln(alpha / 2) / 2)``."""
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) * math.sqrt(2.0 / reps)


def symmetry_statistic(n: int, reps: int, master_seed: int) -> float:
    """Two-sample KS statistic of the negated minima against the maxima.

    Stream ``i`` holds seeds ``derive_seed(master_seed, i, k)``; the maxima
    come from stream 0 and the minima from stream 1, so the samples are
    independent.
    """
    maxima, minima = (
        replicate_block(n, montecarlo._child_seeds(derive_seed(master_seed, i), 0, reps))[:, i]
        for i in (0, 1)
    )
    return float(ks_2samp(-minima, maxima, method="asymp").statistic)


# Scalar streaming moments, one value at a time: the oracle for the
# fused accumulator montecarlo._RowMoments.


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
