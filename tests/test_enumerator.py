import ast
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import graf
from graf import _permutations, enumerator, montecarlo
from graf._permutations import perm_table
from graf.bounds import nearmax_regime_threshold, nearmax_theorem_bound
from graf.combinatorics import ball_size, rencontres_count
from graf.enumerator import (
    ball_counts_exact,
    correlation_histogram_exact,
    enumerate_field,
    enumerated_field_mean,
    mean_correlation_exhaustive,
    near_maximal_set,
    nearmax_table,
)
from graf.field import CostMatrix, field_value, sample_cost_matrix
from graf.montecarlo import derive_seed, estimate
from graf.solvers import solve_max_bruteforce, solve_max_exact

from conftest import (
    adversarial_entries,
    assume_cores,
    random_permutation,
    raw_sum_blocks_oracle,
)


class TestEnumerateField:
    def test_two_by_two(self):
        c = CostMatrix([[1.0, 2.0], [3.0, 4.0]])
        perms, values = enumerate_field(c)
        root2 = math.sqrt(2)
        assert perms.tolist() == [[0, 1], [1, 0]]
        assert values.tolist() == [5.0 / root2, 5.0 / root2]

    def test_lexicographic_order_and_count(self):
        c = sample_cost_matrix(4, 3)
        perms, values = enumerate_field(c)
        assert perms.shape == (24, 4) and values.shape == (24,)
        mappings = [tuple(row) for row in perms.tolist()]
        assert mappings == sorted(mappings)
        assert mappings[0] == (0, 1, 2, 3)
        assert not perms.flags.writeable

    def test_values_match_direct_evaluation(self):
        c = sample_cost_matrix(5, 11)
        perms, values = enumerate_field(c)
        for row, value in zip(perms, values):
            assert value == pytest.approx(field_value(c, row), rel=1e-12)

    def test_max_matches_bruteforce(self):
        c = sample_cost_matrix(3, 8)
        best = enumerate_field(c)[1].max()
        assert best == pytest.approx(solve_max_bruteforce(c).field_value, abs=1e-12)
        assert best == pytest.approx(solve_max_exact(c).field_value, abs=1e-9)

    def test_constant_matrix(self):
        c = CostMatrix(np.ones((4, 4)))
        assert all(value == pytest.approx(2.0, rel=1e-14) for value in enumerate_field(c)[1])

    def test_cap(self):
        with pytest.raises(ValueError):
            enumerate_field(CostMatrix(np.zeros((10, 10))))


class TestPermTable:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_itertools(self, n):
        table = perm_table(n)
        expected = np.array(list(itertools.permutations(range(n))), dtype=np.int8)
        assert table.dtype == np.int8 and not table.flags.writeable
        assert np.array_equal(table, expected.reshape(math.factorial(n), n))


class TestEnumeratedFieldMean:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_closed_form(self, seed):
        c = sample_cost_matrix(6, seed)
        closed = float(c.entries.sum()) / (6 * math.sqrt(6))
        assert enumerated_field_mean(c) == pytest.approx(closed, abs=1e-10)

    @pytest.mark.parametrize("block_rows", [1 << 15, 35_200])
    def test_does_not_move_with_block_rows(self, monkeypatch, block_rows):
        # The partials are MEAN_PARTIAL_ROWS sums each, whatever blocks the
        # walk yields.  With one partial per block, seed 3's mean moved at
        # both sizes and seed 2's at 35,200 rows.
        matrices = [sample_cost_matrix(9, seed) for seed in (2, 3, 8)]
        expected = [enumerated_field_mean(c) for c in matrices]
        assert expected[0] == 0.060274618590488244
        monkeypatch.setattr(_permutations, "BLOCK_ROWS", block_rows)
        assert [enumerated_field_mean(c) for c in matrices] == expected


class TestNearMaximalSet:
    def test_counts_strictly_above_threshold(self):
        c = sample_cost_matrix(4, 5)
        values = sorted(enumerate_field(c)[1])
        m_used = 1.0
        report = near_maximal_set(c, 0.25, m_used)
        oracle = sum(1 for v in values if v > 0.75 * m_used)
        assert report.set_size == oracle
        assert (report.dimension is None) == (oracle == 0)

    def test_monotone_in_eps(self):
        c = sample_cost_matrix(5, 9)
        m_used = 2.0
        sizes = [near_maximal_set(c, eps, m_used).set_size for eps in (0.1, 0.3, 0.5, 0.9)]
        assert sizes == sorted(sizes)

    def test_monotone_in_m_used(self):
        c = sample_cost_matrix(5, 10)
        sizes = [near_maximal_set(c, 0.2, m).set_size for m in (0.5, 1.0, 2.0, 3.0)]
        assert sizes == sorted(sizes, reverse=True)

    def test_zero_plugin_counts_positive_values(self):
        c = sample_cost_matrix(4, 12)
        report = near_maximal_set(c, 0.5, 0.0)
        oracle = sum(1 for v in enumerate_field(c)[1] if v > 0.0)
        assert report.set_size == oracle

    def test_dimension_range(self):
        c = sample_cost_matrix(5, 3)
        report = near_maximal_set(c, 0.9, 1.0)
        assert report.set_size >= 1
        assert report.dimension is not None
        assert 0.0 <= report.dimension <= 1.0
        assert report.set_size <= math.factorial(5)

    def test_empty_set_has_no_dimension(self):
        c = sample_cost_matrix(3, 1)
        report = near_maximal_set(c, 0.01, 100.0)
        assert report.set_size == 0
        assert report.dimension is None


class TestSizesAbove:
    @pytest.mark.parametrize("kind", ["gaussian", "integer", "scaled"])
    @pytest.mark.parametrize("n", range(1, 10))
    def test_thresholds_at_and_beside_enumerated_sums(self, n, kind):
        # A threshold equal to an enumerated sum, or one ulp to either side
        # of it, is counted right only if every sum has the oracle's bits.
        entries = adversarial_entries(kind, n)
        rng = np.random.default_rng(n)
        sums = np.concatenate([sums for _, _, sums in raw_sum_blocks_oracle(entries)])
        picks = [sums.min(), sums.max(), *rng.choice(sums, size=4)]
        thresholds = np.array(
            [t for p in picks for t in (np.nextafter(p, -np.inf), p, np.nextafter(p, np.inf))]
        )
        expected = [np.count_nonzero(sums > t) for t in thresholds]
        assert enumerator._sizes_above(entries, thresholds).tolist() == expected

    @pytest.mark.parametrize("n", range(5, 10))
    def test_reused_workspace_counts_like_fresh(self, n):
        # Back-to-back walks may build their sums in the same memory.  Each
        # matrix's thresholds sit at and beside its own sums, so a sum left
        # over from the matrix before would change a count.
        matrices = [
            adversarial_entries(kind, n) for kind in ("gaussian", "scaled", "integer", "zeros")
        ]
        matrices += [-matrices[0], np.full((n, n), -0.0)]
        rng = np.random.default_rng(n)
        for entries in matrices + matrices[::-1]:
            sums = np.concatenate([sums for _, _, sums in raw_sum_blocks_oracle(entries)])
            picks = [sums.min(), sums.max(), *rng.choice(sums, size=3)]
            thresholds = np.array(
                [t for p in picks for t in (np.nextafter(p, -np.inf), p, np.nextafter(p, np.inf))]
            )
            assert enumerator._sizes_above(entries, thresholds).tolist() == (
                [np.count_nonzero(sums > t) for t in thresholds]
            )

    @staticmethod
    def _threshold_sets(sums: np.ndarray, n: int) -> dict[str, np.ndarray]:
        """Threshold sets for the one-pass count, near the top of ``sums``
        as near-max thresholds are, at and beside sums of their own."""
        top = np.sort(sums)[::-1]
        picks = top[[0, 2, 30, 400, 5000]]
        beside = np.array([t for p in picks for t in (np.nextafter(p, np.inf), p)])
        descending = np.sort(beside)[::-1]
        # --sensitivity's nine: three epsilons, each at the plug-in mean
        # and 2 standard errors below and above it, in nearmax_table's order.
        eps = np.repeat([0.05, 0.1, 0.2], 3)
        shift = np.tile([0.0, -2.0, 2.0], 3)
        m_hat = top[0] / (0.97 * math.sqrt(n))
        return {
            "descending": descending,
            "shuffled": np.random.default_rng(n).permutation(descending),
            "duplicated": np.concatenate([descending[3:6], descending, descending[:4]]),
            "above every sum": np.nextafter(top[0], np.inf) + np.array([0.0, 1.0, 0.5]),
            "sensitivity": (1.0 - eps) * (m_hat + shift * 0.01 * abs(m_hat)) * math.sqrt(n),
        }

    @pytest.mark.parametrize(
        "kind", ["descending", "shuffled", "duplicated", "above every sum", "sensitivity"]
    )
    @pytest.mark.parametrize("n", [7, 8, 9])
    def test_one_pass_counts_every_threshold(self, n, kind):
        # Only sums above the lowest threshold are kept, then every
        # threshold is counted on them: each count must still be one
        # comparison of all n! sums with that threshold.
        entries = adversarial_entries("gaussian", n)
        sums = np.concatenate([sums for _, _, sums in raw_sum_blocks_oracle(entries)])
        thresholds = self._threshold_sets(sums, n)[kind]
        expected = [np.count_nonzero(sums > t) for t in thresholds]
        if kind == "above every sum":
            assert expected == [0, 0, 0]
        else:
            assert len(set(expected)) > 2, expected
        assert enumerator._sizes_above(entries, thresholds).tolist() == expected

    def test_counting_tasks_do_not_refault(self):
        # glibc may return a freed array's pages to the system, so the next
        # array of that size is faulted in again.  Each walk allocates one
        # sums buffer, and once a freed one has raised glibc's mmap
        # threshold the heap keeps that memory for the walks after it.
        if not sys.platform.startswith("linux"):
            pytest.skip("minor fault counts are read on Linux")
        prelude = [
            "import resource, sys",
            "import numpy as np",
            "from graf import enumerator",
            "from graf._permutations import _split_tables",
            "from graf.field import sample_cost_entries",
            "from graf.montecarlo import _child_seeds",
            "faults = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_minflt",
            "thresholds = np.array([5.4, 5.1, 4.6, 4.0])",
        ]
        scenarios = {
            # Tasks of COUNT_TASK_ASSIGNMENTS; the first also builds the
            # tables, so only later ones count.
            "tasks": [
                "size = enumerator.COUNT_TASK_ASSIGNMENTS // 362880",
                "enumerator._count_matrices(9, _child_seeds(3, 0, size), thresholds)",
                "before = faults()",
                "for k in range(1, 4):",
                "    seeds = _child_seeds(3, k * size, (k + 1) * size)",
                "    enumerator._count_matrices(9, seeds, thresholds)",
                "per_matrix = (faults() - before) / (3 * size)",
                "sys.exit(f'{per_matrix:.1f} faults per matrix' if per_matrix >= 100 else 0)",
            ],
            # The tables built first, then one count per matrix: the first
            # two walks may fault their buffers in, no later one should.
            "matrices": [
                "_split_tables(9)",
                "counts = []",
                "for entries in sample_cost_entries(9, range(20)):",
                "    before = faults()",
                "    enumerator._sizes_above(entries, thresholds)",
                "    counts.append(faults() - before)",
                "per_matrix = sum(counts[2:]) / len(counts[2:])",
                "sys.exit(f'faults per matrix: {counts}' if per_matrix >= 20 else 0)",
            ],
        }
        src = str(Path(graf.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        for name, lines in scenarios.items():
            result = subprocess.run(
                [sys.executable, "-c", "\n".join(prelude + lines)],
                env=env,
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert result.returncode == 0, f"{name}: {result.stderr}"


class TestCorrelationHistogram:
    def test_small_tables(self):
        assert correlation_histogram_exact(2) == (1, 0, 1)
        assert correlation_histogram_exact(4) == (9, 8, 6, 0, 1)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_closed_form(self, n):
        assert correlation_histogram_exact(n) == tuple(
            rencontres_count(n, k) for k in range(n + 1)
        )

    def test_reference_independent(self, rng):
        for n in (3, 5, 7):
            base = correlation_histogram_exact(n)
            for _ in range(3):
                ref = random_permutation(rng, n)
                assert correlation_histogram_exact(n, ref) == base

    @pytest.mark.parametrize("reference", [[0, 1], [0, 0, 1], [0, 1, 3]])
    def test_rejects_bad_reference(self, reference):
        with pytest.raises(ValueError, match="not an assignment"):
            correlation_histogram_exact(3, reference)

    def test_counts_partition_group(self):
        for n in (2, 5, 8):
            assert sum(correlation_histogram_exact(n)) == math.factorial(n)

    def test_cap(self):
        with pytest.raises(ValueError):
            correlation_histogram_exact(9)


class TestBallCountsExact:
    def test_examples(self):
        assert ball_counts_exact(4, 0.3) == (1, 1, 1)
        assert ball_counts_exact(5, 0.999) == (76, 76, 76)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_grid_matches_closed_form(self, n):
        for tenths in range(1, 10):
            delta = tenths / 10
            assert ball_counts_exact(n, delta, seed=1) == (ball_size(n, delta),) * 3

    def test_cap(self):
        with pytest.raises(ValueError, match="capped at n=8"):
            ball_counts_exact(9, 0.5)


class TestMeanCorrelationExhaustive:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_exact_value(self, n):
        assert mean_correlation_exhaustive(n) == Fraction(1, n)

    def test_largest_size(self):
        assert mean_correlation_exhaustive(7) == Fraction(1, 7)


def count_tasks(n: int, replications: int, master_seed: int = 7) -> list[tuple]:
    """The counting tasks of one size."""
    study = enumerator._count_study(n, master_seed, replications)
    return [task for block in montecarlo._block_tasks(study) for task in block]


class TestCountTasks:
    @pytest.mark.parametrize("reps", [2, 23, 99, 100, 1000])
    @pytest.mark.parametrize("n", range(2, 10))
    def test_equal_to_within_one_matrix(self, n, reps):
        # Every count here fits one block of matrices.
        tasks = count_tasks(n, reps)
        per_task = enumerator.COUNT_TASK_ASSIGNMENTS // math.factorial(n)
        assert len(tasks) == -(-reps // per_task)
        assert {(t[0], t[1], t[4]) for t in tasks} == {(n, derive_seed(7, n, 1), None)}
        starts, stops = [t[2] for t in tasks], [t[3] for t in tasks]
        assert starts == [0, *stops[:-1]] and stops[-1] == reps
        lengths = [stop - start for start, stop in zip(starts, stops)]
        assert max(lengths) - min(lengths) <= 1

    def test_benchmark_shape(self):
        # 100 matrices: at most 99 per task at n = 8, at most 11 at n = 9.
        for n, expected in [(8, [50, 50]), (9, [10] * 10)]:
            assert [stop - start for _, _, start, stop, _ in count_tasks(n, 100)] == expected

    def test_no_task_crosses_a_block(self):
        # At n <= 6 a whole block of 4096 matrices is one task, under the
        # 666,666 matrices COUNT_TASK_ASSIGNMENTS allows at n = 3.
        for n in (2, 3, 6):
            tasks = count_tasks(n, 5000)
            assert [stop - start for _, _, start, stop, _ in tasks] == [4096, 904]


class TestPoolInterface:
    def test_enumerator_imports_no_task_internals(self):
        # enumerator hands studies to the pool and reads results back; the
        # seeds, the task cut and the task count stay in montecarlo.
        tree = ast.parse(Path(enumerator.__file__).read_text())
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "graf.montecarlo"
            for alias in node.names
        }
        assert imported == {
            "_moments", "_row_study", "_task_pool", "derive_seed", "replicate_block"
        }
        named = {getattr(node, "attr", getattr(node, "id", None)) for node in ast.walk(tree)}
        assert not named & {"_tasks", "_task_count", "_child_seeds", "_replicate_rows"}


class TestDimensionStudy:
    def test_shapes_and_determinism(self):
        rows = nearmax_table([3, 4], [0.2], replications=60, master_seed=5, m_reps=400)
        assert [(r.n, r.epsilon) for r in rows] == [(3, 0.2), (4, 0.2)]
        again = nearmax_table([3, 4], [0.2], replications=60, master_seed=5, m_reps=400)
        assert rows == again
        for row in rows:
            assert 0.0 <= row.empty_fraction <= 1.0
            assert row.bound_small > 0 and row.bound_large > 0
            assert row.m_std_error > 0

    def test_sensitivity_adds_shifted_rows(self):
        rows = nearmax_table(
            [3], [0.2, 0.4], replications=40, master_seed=5, m_reps=300, sensitivity=True
        )
        assert len(rows) == 6
        shifts = [r.m_shift_se for r in rows]
        assert shifts == [0.0, -2.0, 2.0, 0.0, -2.0, 2.0]
        base, low, high = rows[0], rows[1], rows[2]
        assert low.m_used < base.m_used < high.m_used
        # Lower plug-in mean => lower threshold => larger sets.
        assert low.dimension >= base.dimension >= high.dimension

    def test_generous_eps_gives_dimension_near_one(self):
        rows = nearmax_table([4], [0.9], replications=50, master_seed=8, m_reps=300)
        assert rows[0].empty_fraction <= 0.1
        assert rows[0].dimension > 0.6

    def test_same_matrices_across_eps(self):
        table = nearmax_table([4], [0.1, 0.5], replications=50, master_seed=3, m_reps=300)
        single = nearmax_table([4], [0.5], replications=50, master_seed=3, m_reps=300)
        assert table[1] == single[0]

    def test_worker_invariance_across_tasks(self, monkeypatch):
        # Counting tasks of 4 matrices at n = 4 and 1 at n = 5, on a real pool.
        monkeypatch.setattr(enumerator, "COUNT_TASK_ASSIGNMENTS", 100)
        assume_cores(monkeypatch, 2)
        args = ([4, 5], [0.3, 0.6], 50, 17)
        serial = nearmax_table(*args, m_reps=300, workers=1)
        assert nearmax_table(*args, m_reps=300, workers=2) == serial

    def test_worker_invariance_at_nine(self, monkeypatch):
        # 23 matrices make counting tasks of 8, 8 and 7.
        assume_cores(monkeypatch, 2)
        args = ([9], [0.1, 0.3], 23, 41)
        assert [stop - start for _, _, start, stop, _ in count_tasks(9, 23)] == [8, 8, 7]
        serial = nearmax_table(*args, m_reps=300, sensitivity=True, workers=1)
        assert nearmax_table(*args, m_reps=300, sensitivity=True, workers=2) == serial

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_size_takes_its_own_m_pass(self, workers, monkeypatch):
        # Every size reads its m-pass rows from one shared stream.  2000
        # replications are 1, 3 and 2 row tasks at n = 3, 9 and 6.
        assume_cores(monkeypatch, 2)
        sizes, m_reps, seed = [3, 9, 6], 2000, 29
        studies = [montecarlo._row_study(n, 0, m_reps, 1) for n in sizes]
        assert [len(list(montecarlo._block_tasks(study))[0]) for study in studies] == [1, 3, 2]
        rows = nearmax_table(sizes, [0.2], 12, seed, m_reps=m_reps, workers=workers)
        for row, n in zip(rows, sizes):
            expected = estimate(n, m_reps, derive_seed(seed, n, 0)).max_value
            assert (row.m_used, row.m_std_error) == (expected.mean, expected.mean_std_error)

    def test_one_pool_per_call(self, fake_pool, monkeypatch):
        monkeypatch.setattr(montecarlo, "BLOCK_REPLICATIONS", 100)
        rows = nearmax_table([3, 4], [0.2], 60, 5, m_reps=400, workers=2)
        assert fake_pool.sizes == [2]
        assert rows == nearmax_table([3, 4], [0.2], 60, 5, m_reps=400, workers=1)

    @pytest.mark.parametrize("sensitivity", [False, True])
    def test_count_cap(self, fake_pool, monkeypatch, sensitivity):
        # 12 matrices of 2 epsilons, with 3 mean shifts each under
        # sensitivity, hold exactly the cap of counts; one matrix more is
        # rejected before a pool starts or a task is submitted.  Counting
        # tasks of 2 matrices give the pool work to share.
        variants = 6 if sensitivity else 2
        monkeypatch.setattr(enumerator, "_COUNTS_MAX", 12 * variants)
        monkeypatch.setattr(enumerator, "COUNT_TASK_ASSIGNMENTS", 12)
        kwargs = dict(m_reps=300, sensitivity=sensitivity, workers=2)
        rows = nearmax_table([3], [0.2, 0.4], 12, 5, **kwargs)
        assert fake_pool.sizes == [2] and len(rows) == variants
        fake_pool.sizes.clear()
        fake_pool.peak = 0
        with pytest.raises(ValueError, match=f"13 matrices times {variants} variants"):
            nearmax_table([3], [0.2, 0.4], 13, 5, **kwargs)
        assert fake_pool.sizes == [] and fake_pool.peak == 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            nearmax_table([1], [0.2], 10, 0, m_reps=100)
        with pytest.raises(ValueError):
            nearmax_table([4], [1.2], 10, 0, m_reps=100)
        with pytest.raises(ValueError):
            nearmax_table([4], [], 10, 0, m_reps=100)

    def test_bound_columns_are_the_theorem_bound_with_unit_constants(self):
        # Each size's regime threshold and the next float above it, so that
        # every size has eps on both sides of its own threshold.
        sizes = range(2, 10)
        thresholds = [nearmax_regime_threshold(n) for n in sizes]
        eps_list = thresholds + [math.nextafter(t, 1.0) for t in thresholds]
        rows = nearmax_table(list(sizes), eps_list, 2, 0, m_reps=2)
        regimes = set()
        for row in rows:
            theorem = nearmax_theorem_bound(row.n, row.epsilon)
            small = row.epsilon <= nearmax_regime_threshold(row.n)
            regimes.add((row.n, small))
            if small:
                assert row.bound_small == theorem
            else:
                # bounds groups sqrt(eps) * (n log n), so the last bit may differ.
                assert abs(row.bound_large - theorem) <= math.ulp(theorem)
        assert regimes == {(n, small) for n in sizes for small in (True, False)}

    @pytest.mark.parametrize(
        "replications, m_reps, message",
        [(1, 100, "need at least 2 replications"), (10, 1, "m_reps must be at least 2, got 1")],
    )
    def test_replication_errors_name_the_argument(self, replications, m_reps, message):
        with pytest.raises(ValueError, match=message):
            nearmax_table([4], [0.2], replications, 0, m_reps=m_reps)
