import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from graf import montecarlo
from graf.field import CostMatrix


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

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
    return record


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
