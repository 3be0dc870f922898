import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import graf
from graf.field import CostMatrix
from graf.solvers import (
    greedy_assignment,
    greedy_columns,
    solve_max_bruteforce,
    solve_max_exact,
    solve_min_exact,
)

from conftest import greedy_oracle, random_matrix, random_permutation, run_fresh


def diagonal_dominant(n: int, rng) -> CostMatrix:
    entries = rng.uniform(0.01, 0.99, size=(n, n))
    np.fill_diagonal(entries, 10.0)
    return CostMatrix(entries)


class TestBruteForce:
    def test_single_cell(self):
        result = solve_max_bruteforce(CostMatrix([[1.5]]))
        assert result.columns.tolist() == [0]
        assert result.raw_sum == 1.5
        assert result.field_value == 1.5

    def test_two_by_two(self):
        result = solve_max_bruteforce(CostMatrix([[0.0, 2.0], [3.0, 1.0]]))
        assert result.columns.tolist() == [1, 0]
        assert result.raw_sum == 5.0

    def test_tie_breaks_lexicographically(self):
        # 1+4 == 2+3; the one-line-smaller [0, 1] must win.
        result = solve_max_bruteforce(CostMatrix([[1.0, 2.0], [3.0, 4.0]]))
        assert result.columns.tolist() == [0, 1]
        assert result.raw_sum == 5.0

    def test_cap(self):
        with pytest.raises(ValueError, match="solve_max_exact"):
            solve_max_bruteforce(CostMatrix(np.zeros((11, 11))))

    def test_peak_memory_n10(self):
        # The walk over 10! assignments runs one leading column at a time;
        # VmHWM is this fresh interpreter's own high-water mark.
        if not os.path.exists("/proc/self/status"):
            pytest.skip("needs /proc/self/status")
        script = "\n".join([
            "import sys",
            "from graf.field import sample_cost_matrix",
            "from graf.solvers import solve_max_bruteforce, solve_max_exact",
            "c = sample_cost_matrix(10, 0)",
            "best = solve_max_bruteforce(c).columns",
            "assert (best == solve_max_exact(c).columns).all()",
            "with open('/proc/self/status') as fh:",
            "    kb = next(int(line.split()[1]) for line in fh if line.startswith('VmHWM:'))",
            "sys.exit(f'peak RSS {kb} kB, limit 140 MB' if kb >= 140 * 1024 else 0)",
        ])
        src = str(Path(graf.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
        )
        assert result.returncode == 0, result.stderr


class TestExactSolver:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_bruteforce(self, n, rng):
        for _ in range(30):
            c = random_matrix(rng, n)
            assert solve_max_exact(c).raw_sum == pytest.approx(
                solve_max_bruteforce(c).raw_sum, abs=1e-9
            )

    def test_constant_matrix(self):
        for n in (1, 3, 6):
            assert solve_max_exact(CostMatrix(np.ones((n, n)))).raw_sum == pytest.approx(
                float(n), abs=1e-12
            )

    def test_diagonal_dominant_picks_identity(self, rng):
        c = diagonal_dominant(6, rng)
        assert solve_max_exact(c).columns.tolist() == list(range(6))
        assert solve_max_bruteforce(c).columns.tolist() == list(range(6))

    def test_row_max_relaxation(self, rng):
        for n in (3, 7, 12):
            c = random_matrix(rng, n)
            assert solve_max_exact(c).raw_sum <= c.entries.max(axis=1).sum() + 1e-12

    def test_row_permutation_invariance(self, rng):
        for _ in range(10):
            c = random_matrix(rng, 6)
            w = random_permutation(rng, 6)
            shuffled = CostMatrix(c.entries[w, :])
            base = solve_max_exact(c)
            moved = solve_max_exact(shuffled)
            assert moved.raw_sum == pytest.approx(base.raw_sum, rel=1e-12)
            # Row i of the shuffled matrix is row w[i] of the original.
            assert np.array_equal(moved.columns, base.columns[w])

    def test_column_permutation_invariance(self, rng):
        for _ in range(10):
            c = random_matrix(rng, 5)
            w = random_permutation(rng, 5)
            inverse = np.argsort(w)
            shuffled = CostMatrix(c.entries[:, w])
            base = solve_max_exact(c)
            moved = solve_max_exact(shuffled)
            assert moved.raw_sum == pytest.approx(base.raw_sum, rel=1e-12)
            assert np.array_equal(moved.columns, inverse[base.columns])

    def test_field_value_is_normalized(self, rng):
        c = random_matrix(rng, 9)
        result = solve_max_exact(c)
        assert result.field_value == pytest.approx(result.raw_sum / 3.0, rel=1e-15)


class TestLsaLoader:
    """The solver and the sampler's ndtri come from scipy's compiled
    modules, loaded alone by the loader that also serves graf.bounds
    (tests/test_bounds.py, TestCompiledRoutines)."""

    def test_loads_the_file_without_scipy_optimize(self):
        # A silent fallback would import scipy.optimize, about 0.25 s.
        script = "\n".join([
            "import sys",
            "from graf.solvers import _linear_sum_assignment",
            "lsa = _linear_sum_assignment()",
            "assert 'scipy.optimize' not in sys.modules, 'fell back to scipy.optimize'",
            "assert 'scipy.optimize._lsap' in sys.modules, 'the loaded file stays'",
            "assert type(lsa).__name__ == 'builtin_function_or_method', lsa",
            "import scipy.optimize",
            "assert scipy.optimize.linear_sum_assignment is lsa",
        ])
        result = run_fresh(script)
        assert result.returncode == 0, result.stderr

    def test_missing_file_falls_back(self, tmp_path):
        script = "\n".join([
            "import sys",
            "from graf import solvers",
            f"solvers._extension_path = lambda module: {str(tmp_path / '_lsap.so')!r}",
            "lsa = solvers._linear_sum_assignment()",
            "assert 'scipy.optimize' in sys.modules",
            "import scipy.optimize",
            "assert lsa is scipy.optimize.linear_sum_assignment",
        ])
        result = run_fresh(script)
        assert result.returncode == 0, result.stderr

    def test_ndtri_loads_without_scipy_special(self):
        # scipy.special._ufuncs loads alone once the modules it imports as
        # it loads are in sys.modules.  A scipy release that changes that
        # set makes the loader fall back to the package, about 0.3 s.
        script = "\n".join([
            "import sys",
            "from graf import solvers",
            "ndtri = solvers._scipy_compiled('special._ufuncs', 'ndtri')",
            "assert 'scipy.special' not in sys.modules, 'fell back to scipy.special'",
            "assert type(ndtri).__name__ == 'ufunc', ndtri",
            "import scipy.special",
            "assert scipy.special.ndtri is ndtri",
            "assert scipy.special._ufuncs is sys.modules['scipy.special._ufuncs']",
        ])
        result = run_fresh(script)
        assert result.returncode == 0, result.stderr

    def test_missing_sibling_falls_back(self, tmp_path):
        script = "\n".join([
            "import sys",
            "from graf import solvers",
            "path = solvers._extension_path",
            f"missing = {str(tmp_path / '_gufuncs.so')!r}",
            "solvers._extension_path = lambda module: (",
            "    missing if module == 'special._gufuncs' else path(module))",
            "ndtri = solvers._ndtri()",
            "assert 'scipy.special' in sys.modules",
            "import scipy.special",
            "assert ndtri is scipy.special.ndtri",
        ])
        result = run_fresh(script)
        assert result.returncode == 0, result.stderr

    def test_failed_load_leaves_no_module(self, tmp_path):
        # _special_ufuncs' file is missing after _ufuncs_cxx and
        # _ellip_harm_2 have loaded: the fallback must find sys.modules as
        # it was.  What _ufuncs_cxx imports besides its package is
        # imported first.
        script = "\n".join([
            "import importlib, sys, types",
            "import numpy, scipy._cyutility, scipy._lib._ccallback",
            "from graf import solvers",
            "path, load = solvers._extension_path, solvers._load_extension",
            f"missing = {str(tmp_path / '_special_ufuncs.so')!r}",
            "solvers._extension_path = lambda module: (",
            "    missing if module == 'special._special_ufuncs' else path(module))",
            "loads, at_fallback = [], []",
            "solvers._load_extension = lambda name, file: loads.append(name) or load(name, file)",
            "def import_module(name):",
            "    at_fallback.append(dict(sys.modules))",
            "    return importlib.import_module(name)",
            "solvers.importlib = types.SimpleNamespace(",
            "    import_module=import_module, util=importlib.util, machinery=importlib.machinery)",
            "before = dict(sys.modules)",
            "ndtri = solvers._ndtri()",
            "assert [name.rpartition('.')[2] for name in loads] == [",
            "    '_ufuncs_cxx', '_ellip_harm_2', '_special_ufuncs'], loads",
            "assert at_fallback == [before], set(at_fallback[0]) ^ set(before)",
            "import scipy.special",
            "assert ndtri is scipy.special.ndtri",
        ])
        result = run_fresh(script)
        assert result.returncode == 0, result.stderr

    def test_takes_the_loaded_package(self):
        script = "\n".join([
            "import scipy.optimize",
            "from graf import solvers",
            "def not_called(name, path):",
            "    raise AssertionError('loaded the file although scipy.optimize was loaded')",
            "solvers._load_extension = not_called",
            "assert solvers._linear_sum_assignment() is scipy.optimize.linear_sum_assignment",
        ])
        result = run_fresh(script)
        assert result.returncode == 0, result.stderr


class TestMinSolver:
    def test_two_by_two(self):
        result = solve_min_exact(CostMatrix([[0.0, 2.0], [3.0, 1.0]]))
        assert result.columns.tolist() == [0, 1]
        assert result.raw_sum == 1.0

    def test_constant_matrix(self):
        assert solve_min_exact(CostMatrix(np.ones((4, 4)))).raw_sum == pytest.approx(4.0)

    def test_negation_identity(self, rng):
        for _ in range(20):
            c = random_matrix(rng, 7)
            negated = CostMatrix(-c.entries)
            assert solve_min_exact(c).raw_sum == pytest.approx(
                -solve_max_exact(negated).raw_sum, rel=1e-12
            )


class TestGreedy:
    def test_tie_goes_to_smallest_column(self):
        result = greedy_assignment(CostMatrix([[1.0, 1.0], [5.0, 0.0]]))
        assert result.columns.tolist() == [0, 1]
        assert result.raw_sum == 1.0
        # The optimum is strictly better here.
        assert solve_max_exact(CostMatrix([[1.0, 1.0], [5.0, 0.0]])).raw_sum == 6.0

    def test_single_cell(self):
        result = greedy_assignment(CostMatrix([[-0.5]]))
        assert result.columns.tolist() == [0]
        assert result.raw_sum == -0.5

    def test_diagonal_dominant_matches_exact(self, rng):
        c = diagonal_dominant(6, rng)
        assert greedy_assignment(c).columns.tolist() == list(range(6))

    def test_first_row_takes_global_row_max(self, rng):
        for _ in range(20):
            c = random_matrix(rng, 8)
            result = greedy_assignment(c)
            assert c.entries[0, result.columns[0]] == c.entries[0].max()

    def test_never_beats_exact(self, rng):
        for n in (2, 5, 9, 15):
            for _ in range(10):
                c = random_matrix(rng, n)
                assert greedy_assignment(c).raw_sum <= solve_max_exact(c).raw_sum + 1e-12


def small_integer_batches():
    """Batches of 2 to 5 matrices of size 1 to 9 with entries in -2..2,
    so that rows tie often."""
    shapes = st.builds(lambda b, n: (b, n, n), st.integers(2, 5), st.integers(1, 9))
    return shapes.flatmap(lambda shape: arrays(np.float64, shape, elements=st.integers(-2, 2)))


def greedy_where_oracle(entries: np.ndarray) -> np.ndarray:
    """Greedy columns of a ``(B, n, n)`` batch, each row step a masked
    argmax in which the used columns read -inf."""
    columns = np.empty(entries.shape[:2], dtype=np.intp)
    used = np.zeros(entries.shape[:2], dtype=bool)
    batch = np.arange(len(entries))
    for i in range(entries.shape[1]):
        columns[:, i] = np.where(used, -np.inf, entries[:, i]).argmax(axis=1)
        used[batch, columns[:, i]] = True
    return columns


class TestGreedyColumns:
    @settings(max_examples=200, deadline=None)
    @given(small_integer_batches())
    def test_matches_row_loop_oracle(self, entries):
        expected = np.array([greedy_oracle(c) for c in entries])
        assert np.array_equal(greedy_columns(entries), expected)

    @settings(max_examples=200, deadline=None)
    @given(small_integer_batches())
    def test_matches_masked_argmax_oracle(self, entries):
        # Tied entries: the smallest column wins in both.
        assert np.array_equal(greedy_columns(entries), greedy_where_oracle(entries))

    @pytest.mark.parametrize("batch, n", [(1, 200), (1, 9), (655, 10)])
    def test_sampled_batches_match_masked_argmax_oracle(self, rng, batch, n):
        entries = rng.standard_normal((batch, n, n))
        kept = entries.copy()
        assert np.array_equal(greedy_columns(entries), greedy_where_oracle(entries))
        assert np.array_equal(entries, kept)
