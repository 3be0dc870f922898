import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from graf._permutations import BLOCK_ROWS, raw_sum_blocks, sum_workspace
from graf.enumerator import enumerated_field_mean
from graf.field import CostMatrix

from conftest import adversarial_entries, raw_sum_blocks_oracle


def assert_blocks_match_oracle(entries: np.ndarray) -> None:
    """Every yielded block equals the gather oracle's: the same offset, the
    same rows and the same sums bit for bit, sign of zero included."""
    walked = list(raw_sum_blocks(entries))
    gathered = list(raw_sum_blocks_oracle(entries))
    assert [start for start, _, _ in walked] == [start for start, _, _ in gathered]
    for (_, rows, sums), (_, oracle_rows, oracle_sums) in zip(walked, gathered):
        assert np.array_equal(rows, oracle_rows)
        assert sums.dtype == oracle_sums.dtype == np.float64
        assert np.array_equal(sums, oracle_sums)
        assert np.array_equal(sums.view(np.uint64), oracle_sums.view(np.uint64))


class TestRawSumBlocks:
    @pytest.mark.parametrize("kind", ["gaussian", "integer", "scaled", "zeros"])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_bit_identical_to_gather(self, n, kind):
        assert_blocks_match_oracle(adversarial_entries(kind, n))

    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_order_is_numpys_not_left_to_right(self, n):
        # The matrices above tell the orders apart: numpy's pairwise sum of
        # the gathered rows differs from a left-to-right sum somewhere.
        entries = adversarial_entries("scaled", n)
        rows = next(raw_sum_blocks_oracle(entries))[1]
        terms = entries[np.arange(n), rows]
        left_to_right = functools.reduce(np.add, terms.T)
        assert not np.array_equal(left_to_right, terms.sum(axis=1))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 9).flatmap(
            lambda n: arrays(
                np.float64, (n, n), elements=st.floats(-1e12, 1e12, allow_subnormal=True)
            )
        )
    )
    def test_property_bit_identical_to_gather(self, entries):
        assert_blocks_match_oracle(entries)

    @pytest.mark.parametrize("kind", ["gaussian", "scaled"])
    def test_enumerated_mean_sums_the_oracle_blocks(self, kind):
        # enumerated_field_mean fsums per-block partials, so it needs the
        # oracle's block boundaries as well as its sums.
        entries = adversarial_entries(kind, 9)
        total = math.fsum(float(sums.sum()) for _, _, sums in raw_sum_blocks_oracle(entries))
        expected = total / (math.factorial(9) * math.sqrt(9))
        assert enumerated_field_mean(CostMatrix(entries)) == expected


class TestSumWorkspace:
    @pytest.mark.parametrize("kind", ["gaussian", "integer", "scaled", "zeros", "negative zeros"])
    @pytest.mark.parametrize("n", range(1, 10))
    def test_same_bits_as_fresh_blocks(self, n, kind):
        # Consumed a step at a time, as callers must: a block built in the
        # workspace holds only until the next one overwrites it.  n <= 4
        # has no tail and leaves the workspace unused; n = 9's second
        # block is the short one, 162,880 rows.
        if kind == "negative zeros":
            entries = np.full((n, n), -0.0)
        else:
            entries = adversarial_entries(kind, n)
        fresh = raw_sum_blocks(entries)
        reused = raw_sum_blocks(entries, sum_workspace(n))
        covered = 0
        for start, rows, sums in reused:
            fresh_start, fresh_rows, fresh_sums = next(fresh)
            assert start == fresh_start == covered
            assert len(rows) == len(sums) == min(BLOCK_ROWS, math.factorial(n) - start)
            assert np.array_equal(rows, fresh_rows)
            assert np.array_equal(sums.view(np.uint64), fresh_sums.view(np.uint64))
            covered += len(sums)
        assert next(fresh, None) is None
        assert covered == math.factorial(n)
