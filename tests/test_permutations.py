import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from graf._permutations import BLOCK_ROWS, raw_sum_blocks
from graf.enumerator import MEAN_PARTIAL_ROWS, enumerated_field_mean
from graf.field import CostMatrix

from conftest import adversarial_entries, raw_sum_blocks_oracle


def assert_blocks_match_oracle(entries: np.ndarray) -> None:
    """Every yielded block equals the gather oracle's: the same offset, the
    same rows and the same sums bit for bit, sign of zero included.

    The walk and the oracle are stepped together, as callers must: a
    yielded block holds only until the walk's next step overwrites it.
    """
    n = entries.shape[0]
    gathered = raw_sum_blocks_oracle(entries)
    covered = 0
    for start, rows, sums in raw_sum_blocks(entries):
        oracle_start, oracle_rows, oracle_sums = next(gathered)
        assert start == oracle_start == covered
        # n = 9's sixth block is the short one, 35,200 rows.
        assert len(rows) == len(sums) == min(BLOCK_ROWS, math.factorial(n) - start)
        assert np.array_equal(rows, oracle_rows)
        assert sums.dtype == oracle_sums.dtype == np.float64
        assert np.array_equal(sums.view(np.uint64), oracle_sums.view(np.uint64))
        covered += len(sums)
    assert next(gathered, None) is None
    assert covered == math.factorial(n)


class TestRawSumBlocks:
    @pytest.mark.parametrize("kind", ["gaussian", "integer", "scaled", "zeros", "negative zeros"])
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
        # enumerated_field_mean fsums one partial per MEAN_PARTIAL_ROWS sums,
        # so it needs those partials' boundaries as well as the oracle's sums.
        entries = adversarial_entries(kind, 9)
        sums = np.concatenate([sums for _, _, sums in raw_sum_blocks_oracle(entries)])
        total = math.fsum(
            float(sums[k : k + MEAN_PARTIAL_ROWS].sum())
            for k in range(0, len(sums), MEAN_PARTIAL_ROWS)
        )
        expected = total / (math.factorial(9) * math.sqrt(9))
        assert enumerated_field_mean(CostMatrix(entries)) == expected


class TestSumWorkspace:
    @pytest.mark.parametrize("kind", ["gaussian", "integer", "scaled", "zeros", "negative zeros"])
    @pytest.mark.parametrize("n", range(1, 10))
    def test_same_bits_as_fresh_blocks(self, n, kind):
        # Each walk builds its blocks in a sums buffer of its own and
        # reuses it from block to block.  A walk stepped in turn with a
        # walk over another matrix yields what a fresh walk stepped alone
        # yields: no block leaks into the other walk or into its own next
        # block.  n <= 4 has no tail and allocates no buffer; n = 9's
        # sixth block is the short one, 35,200 rows.
        entries = adversarial_entries(kind, n)
        fresh = raw_sum_blocks(entries)
        other = raw_sum_blocks(entries[::-1] + 1.0)
        covered = 0
        for start, rows, sums in raw_sum_blocks(entries):
            fresh_start, fresh_rows, fresh_sums = next(fresh)
            fresh_bits = fresh_sums.view(np.uint64).copy()
            assert start == fresh_start == covered
            assert len(rows) == len(sums) == min(BLOCK_ROWS, math.factorial(n) - start)
            assert np.array_equal(rows, fresh_rows)
            assert np.array_equal(sums.view(np.uint64), fresh_bits)
            next(other)
            assert np.array_equal(sums.view(np.uint64), fresh_bits)
            covered += len(sums)
        assert next(fresh, None) is None
        assert covered == math.factorial(n)
