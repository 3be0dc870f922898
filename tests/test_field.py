import itertools
import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graf import _scipy, field, montecarlo
from graf._permutations import perm_table
from graf.enumerator import enumerate_field, near_maximal_set
from graf.field import (
    SEED_MAX,
    CostMatrix,
    _gaussian_passes,
    _permutation_codes,
    _seed_array,
    _seed_sequence_words,
    correlation,
    field_value,
    read_matrix_csv,
    sample_chunk_size,
    sample_cost_entries,
    sample_cost_matrix,
    write_matrix_csv,
)
from graf.montecarlo import replicate_block
from graf.solvers import solve_max_bruteforce

from conftest import random_matrix, random_permutation


def paired_permutations(n_max=8):
    return st.integers(min_value=1, max_value=n_max).flatmap(
        lambda n: st.tuples(st.permutations(list(range(n))), st.permutations(list(range(n))))
    )


def coordinate_distance(u, v) -> float:
    """L2 distance between the field coordinates at ``u`` and ``v``.

    ``g(c, u) - g(c, v)`` is linear in the i.i.d. standard Gaussian entries,
    so its L2 norm is the Euclidean norm of its coefficients, which
    ``field_value`` gives one unit matrix at a time.
    """
    n = len(u)
    squares = []
    for i, j in itertools.product(range(n), repeat=2):
        unit = np.zeros((n, n))
        unit[i, j] = 1.0
        c = CostMatrix(unit)
        squares.append((field_value(c, u) - field_value(c, v)) ** 2)
    return math.sqrt(math.fsum(squares))


def decoded_texts(table) -> list[str]:
    """The texts of ``_permutation_codes(table)``, decoded column by column."""
    codes = _permutation_codes(table)
    text = codes.T.tobytes().decode("ascii")
    return [text[k : k + len(codes)] for k in range(0, len(text), len(codes))]


class TestPermutation:
    @pytest.mark.parametrize("bad", [(), (1,), (0, 0), (0, 2), (-1, 0)])
    def test_rejects_non_bijections(self, bad):
        with pytest.raises(ValueError, match="not an assignment"):
            correlation(bad, bad)
        with pytest.raises(ValueError, match="not an assignment"):
            field_value(CostMatrix(np.zeros((max(1, len(bad)),) * 2)), bad)

    def test_text_round_trip(self, rng):
        u = rng.permutation(7)
        (text,) = decoded_texts([u])
        assert np.array_equal(np.array(text.split(","), dtype=int) - 1, u)
        assert decoded_texts([[2, 0, 1]]) == ["3,1,2"]

    def test_table_texts_match_permutation_text(self):
        rows = list(itertools.permutations(range(4)))
        texts = decoded_texts(np.array(rows, dtype=np.int8))
        assert texts[0] == "1,2,3,4" and texts[-1] == "4,3,2,1"
        # One-line notation: the 1-based column of each row, comma-separated.
        assert texts == [",".join(str(j + 1) for j in row) for row in rows]

    @pytest.mark.parametrize("n", range(1, 10))
    def test_texts_match_python_join_on_perm_table(self, n):
        table = perm_table(n)
        expected = [",".join(str(j + 1) for j in row) for row in table.tolist()]
        assert decoded_texts(table) == expected

    @pytest.mark.parametrize("rows", [[list(range(10))], [[9]], [[0, -1]], [[]]])
    def test_texts_reject_indices_beyond_one_digit(self, rows):
        with pytest.raises(ValueError):
            decoded_texts(rows)


class TestCostMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            CostMatrix([[1.0, 2.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            CostMatrix([[1.0, math.inf], [0.0, 0.0]])

    @pytest.mark.parametrize(
        "entry_point",
        [
            CostMatrix,
            lambda e: solve_max_bruteforce(CostMatrix(e)),
            lambda e: enumerate_field(CostMatrix(e)),
            lambda e: near_maximal_set(CostMatrix(e), 0.5, 1.0),
        ],
        ids=["constructor", "solve_max_bruteforce", "enumerate_field", "near_maximal_set"],
    )
    def test_rejects_overflowing_sums(self, entry_point):
        # Entries are finite, but every assignment takes six +1e308 and two
        # -1e308 entries: 4e308 overflows to inf, or to nan where the order
        # of the additions meets inf - inf.
        e = np.full((8, 8), 1e308)
        e[:, 2:4] = -1e308
        with pytest.raises(ValueError, match=r"n=8 times the entry of magnitude 1e\+308"):
            entry_point(e)

    def test_accepts_sums_just_inside_float_range(self):
        c = CostMatrix([[8.9e307, -8.9e307], [-8.9e307, 8.9e307]])
        assert solve_max_bruteforce(c).raw_sum == 1.78e308

    def test_entries_read_only(self):
        c = CostMatrix([[1.0]])
        with pytest.raises(ValueError):
            c.entries[0, 0] = 2.0


class TestSampling:
    def test_deterministic(self):
        a = sample_cost_matrix(3, 42)
        b = sample_cost_matrix(3, 42)
        assert (a.entries == b.entries).all()

    def test_seeds_differ(self):
        a = sample_cost_matrix(3, 1)
        b = sample_cost_matrix(3, 2)
        assert (a.entries != b.entries).any()

    def test_mean_is_central(self):
        # Mean of 10^6 standard normals is within 4 standard deviations of 0.
        c = sample_cost_matrix(1000, 7)
        assert abs(c.entries.mean()) < 4.0 / math.sqrt(1_000_000)

    def test_variance_is_unit(self):
        # Chi-square concentration: sd of the sample variance is ~sqrt(2/10^6).
        c = sample_cost_matrix(1000, 7)
        assert abs(c.entries.var(ddof=1) - 1.0) < 0.01

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            sample_cost_matrix(0, 1)
        with pytest.raises(ValueError):
            sample_cost_matrix(3, -1)
        with pytest.raises(ValueError):
            sample_cost_matrix(3, 2**64)

    def test_unit_variance_across_seeds(self):
        u = np.arange(4)
        values = [field_value(sample_cost_matrix(4, seed), u) for seed in range(2000)]
        # Monte Carlo error of the sample variance is ~sqrt(2/2000) ~ 0.032.
        assert abs(np.var(values, ddof=1) - 1.0) < 0.13


#: Seeds at the edges of the 32- and 64-bit words SeedSequence hashes.
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, SEED_MAX]


#: numpy's own PCG64, which shares no code with the sampler.
NUMPY_PCG64 = np.random.PCG64


@contextmanager
def recorded_draws():
    """Record the raw words of every ``random_raw`` call the sampler's
    generator makes while the context is open, in call order."""
    drawn = []

    # The state setter takes only a state whose generator is named PCG64.
    class PCG64(NUMPY_PCG64):
        def random_raw(self, size=None, output=True):
            drawn.append(super().random_raw(size, output))
            return drawn[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.random, "PCG64", PCG64)
        yield drawn


def assert_draws_match_numpy(n: int, seeds: list[int]) -> None:
    """Each sampling pass draws the raw words of ``np.random.PCG64(seed)``
    for its seeds and maps them to Gaussians by the documented transform
    and ``ndtri``."""
    ndtri = _scipy.ndtri()
    start = passes = 0
    with recorded_draws() as drawn:
        for matrices in _gaussian_passes(n, seeds):
            chunk = seeds[start : start + len(matrices)]
            raw = np.array([NUMPY_PCG64(seed).random_raw(n * n) for seed in chunk])
            assert np.array_equal(np.array(drawn), raw)
            drawn.clear()
            uniforms = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
            assert np.array_equal(matrices, ndtri(uniforms).reshape(len(chunk), n, n))
            start += len(matrices)
            passes += 1
    assert start == len(seeds)
    assert passes == -(-len(seeds) // sample_chunk_size(n))


@contextmanager
def counted_seed_words():
    """Count the calls of ``field._seed_sequence_words`` while the context is open."""
    calls = []

    def counting(seeds):
        calls.append(len(seeds))
        return _seed_sequence_words(seeds)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(field, "_seed_sequence_words", counting)
        yield calls


class TestBatchedSeeding:
    """The batched SeedSequence -> PCG64 path reproduces numpy bit for bit."""

    @pytest.fixture(scope="class")
    def seeds(self):
        drawn = np.random.default_rng(7).integers(0, 2**64, 4096 - len(EDGE_SEEDS), np.uint64)
        return EDGE_SEEDS + drawn.tolist()

    def test_state_words_match_seed_sequence(self, seeds):
        expected = [np.random.SeedSequence(s).generate_state(4, np.uint64) for s in seeds]
        assert np.array_equal(_seed_sequence_words(_seed_array(seeds)), np.array(expected))

    @pytest.mark.parametrize("n", [1, 5, 10, 20, 50, 100])
    def test_raw_draws_match_numpy(self, n, seeds):
        # From n = 5 on the 4096 seeds span several sampling passes; at
        # n = 100 a pass holds 6 seeds.
        assert_draws_match_numpy(n, seeds)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, SEED_MAX), max_size=40))
    def test_state_words_match_seed_sequence_on_any_seeds(self, seeds):
        expected = [np.random.SeedSequence(s).generate_state(4, np.uint64) for s in seeds]
        words = _seed_sequence_words(_seed_array(seeds))
        assert np.array_equal(words, np.array(expected).reshape(len(seeds), 4))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 200), st.lists(st.integers(0, SEED_MAX), max_size=40))
    def test_raw_draws_match_numpy_on_any_seeds(self, n, seeds):
        # No seed, one seed, one pass or several, from 2048 matrices a
        # pass (n = 5) to one (n = 200).
        assert_draws_match_numpy(n, seeds)

    @pytest.mark.parametrize("n, count", [(10, 1400), (200, 8)])
    def test_seeds_hashed_once_per_call(self, n, count):
        # 1400 seeds are 3 passes at n = 10; 8 seeds are 8 passes at n = 200.
        assert sample_chunk_size(n) < count
        seeds = montecarlo._child_seeds(n, 0, count)
        for kernel in (replicate_block, sample_cost_entries):
            with counted_seed_words() as calls:
                kernel(n, seeds)
            assert calls == [count], kernel.__name__

    @pytest.mark.parametrize("bad", [-1, SEED_MAX + 1])
    def test_bad_last_seed_raises_before_any_draw(self, bad, monkeypatch):
        # At n = 200 each seed is a pass of its own: the bad seed is in
        # the eighth pass, and nothing of the first seven may run.
        def no_solve(*args):
            raise AssertionError("a matrix was solved")

        monkeypatch.setattr(montecarlo, "_lsa_columns", no_solve)
        monkeypatch.setattr(montecarlo, "greedy_columns", no_solve)
        seeds = [*range(7), bad]
        for kernel in (replicate_block, sample_cost_entries):
            with recorded_draws() as drawn, pytest.raises(ValueError, match="64-bit"):
                kernel(200, seeds)
            assert drawn == [], kernel.__name__

    @pytest.mark.parametrize("bad", [1.0, "1"])
    def test_rejects_non_integer_seeds(self, bad):
        with pytest.raises(TypeError):
            _seed_array([0, bad])


class TestFieldValue:
    def test_single_entry(self):
        assert field_value(CostMatrix([[2.5]]), [0]) == 2.5

    def test_hand_case(self):
        c = CostMatrix([[0.0, 2.0], [3.0, 1.0]])
        assert field_value(c, [1, 0]) == pytest.approx(5.0 / math.sqrt(2), abs=1e-15)

    def test_linearity(self):
        c = CostMatrix([[0.0, 2.0], [3.0, 1.0]])
        u = [1, 0]
        doubled = CostMatrix(2.0 * c.entries)
        assert field_value(doubled, u) == pytest.approx(2.0 * field_value(c, u), rel=1e-15)

    def test_constant_matrix_gives_sqrt_n(self, rng):
        for n in (1, 4, 7):
            c = CostMatrix(np.ones((n, n)))
            u = random_permutation(rng, n)
            assert field_value(c, u) == pytest.approx(math.sqrt(n), rel=1e-14)

    def test_relabeling_invariance(self, rng):
        # Permuting rows by w and composing the assignment with w is a no-op.
        for n in (3, 6):
            c = random_matrix(rng, n)
            u = random_permutation(rng, n)
            w = random_permutation(rng, n)
            relabeled = CostMatrix(c.entries[w, :])
            assert field_value(relabeled, u[w]) == pytest.approx(field_value(c, u), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            field_value(CostMatrix([[1.0]]), [1, 0])


class TestMetricStructure:
    def test_correlation_examples(self):
        assert correlation([0, 1, 2], [0, 1, 2]) == 1.0
        assert correlation([0, 1, 2], [1, 0, 2]) == pytest.approx(1 / 3)
        assert correlation([0, 1], [1, 0]) == 0.0

    def test_l2_examples(self):
        u, v = [0, 1], [1, 0]
        assert coordinate_distance(u, u) == 0.0
        assert coordinate_distance(u, v) == pytest.approx(math.sqrt(2), rel=1e-15)
        assert coordinate_distance([0, 1, 2], [1, 0, 2]) == pytest.approx(
            math.sqrt(4 / 3), rel=1e-15
        )

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            correlation([0], [0, 1])

    @settings(max_examples=200, deadline=None)
    @given(paired_permutations())
    def test_correlation_properties(self, pair):
        u, v = pair
        r = correlation(u, v)
        assert correlation(v, u) == r
        assert 0.0 <= r <= 1.0
        assert correlation(u, u) == 1.0
        # Exact complement relation with the Hamming distance.
        assert sum(a != b for a, b in zip(u, v)) == len(u) * (1 - r)

    @settings(max_examples=200, deadline=None)
    @given(paired_permutations())
    def test_l2_identity(self, pair):
        u, v = pair
        assert coordinate_distance(u, v) ** 2 == pytest.approx(
            2.0 * (1.0 - correlation(u, v)), abs=1e-14
        )


class TestSerialization:
    def test_matrix_round_trip_exact(self, tmp_path):
        c = sample_cost_matrix(5, 99)
        path = tmp_path / "m.csv"
        write_matrix_csv(c, path)
        assert path.read_text().startswith("# n=5\n")
        back = read_matrix_csv(path)
        assert (back.entries == c.entries).all()

    def test_matrix_file_round_trip(self, tmp_path):
        c = sample_cost_matrix(3, 5)
        path = tmp_path / "m.csv"
        write_matrix_csv(c, path)
        assert (read_matrix_csv(path).entries == c.entries).all()

    def test_read_rejects_garbage(self, tmp_path):
        path = tmp_path / "m.csv"
        for text in ("1,2\n3,4\n", "# n=2\n1,2\n", "# n=2\n1,2,3\n4,5,6\n"):
            path.write_text(text)
            with pytest.raises(ValueError):
                read_matrix_csv(path)

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("# n=2\n1,2\n\n3,x\n", 4, "could not convert string to float: 'x'"),
            ("# n=2\n1_0,2\n3,4\n", 2, "underscore in cell '1_0'"),
            ("\n# n=two\n", 2, "malformed size header: '# n=two'"),
            ("# n=0\n", 1, "malformed size header: '# n=0'"),
            ("# n=-1\n", 1, "malformed size header: '# n=-1'"),
            ("# n=0_1\n0.5\n", 1, "malformed size header: '# n=0_1'"),
            ("# n=+1\n0.5\n", 1, "malformed size header: '# n=+1'"),
            ("# n= 1\n0.5\n", 1, "malformed size header: '# n= 1'"),
            ("1,2\n3,4\n", 1, "must start with a '# n=<n>' line"),
            ("", 1, "must start with a '# n=<n>' line"),
            ("# n=2\n1,2\n", 2, "expected 2 rows, found 1"),
            ("# n=2\n1,2\n3,4,5\n", 3, "row length does not match declared size"),
            ("# n=2\n1,2\n3,nan\n", 3, "cost matrix entries must all be finite"),
            ("# n=2\n1e308,1\n-1.5e308,0\n", 3, "n=2 times the entry of magnitude 1.5e+308"),
        ],
        ids=[
            "cell", "underscore-cell", "header", "zero-size", "negative-size", "underscore-size",
            "plus-size", "space-size", "no-header", "empty",
            "row-count", "row-length", "non-finite", "overflowing-sums",
        ],
    )
    def test_read_errors_name_path_and_line(self, tmp_path, text, line, message):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            read_matrix_csv(path)
        assert str(info.value).startswith(f"{path}:{line}: ")
        assert message in str(info.value)

    def test_read_accepts_sums_just_inside_float_range(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# n=2\n8.9e307,-8.9e307\n-8.9e307,8.9e307\n")
        assert read_matrix_csv(path).entries[0, 0] == 8.9e307

    def test_read_non_ascii_names_path_line_and_column(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes("# n=1\n0.5\u00e9\n".encode("utf-8"))
        with pytest.raises(ValueError) as info:
            read_matrix_csv(path)
        assert str(info.value) == f"{path}:2: non-ASCII byte at column 4"
